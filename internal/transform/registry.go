package transform

import (
	"fmt"
	"sync"

	"repro/internal/profile"
)

// BuildFunc is the transformation half of a PVT class: given a profile of
// the class, it returns the candidate repairs. ForProfile calls it for the
// profiles whose Type() is the name it is registered under.
type BuildFunc func(p profile.Profile) []Transformation

var (
	regMu    sync.RWMutex
	builders = make(map[string]BuildFunc)
)

// RegisterBuilder adds a transformation builder under a class name. It
// fails loudly on an empty name, a nil builder, or a duplicate name.
func RegisterBuilder(class string, build BuildFunc) error {
	if class == "" {
		return fmt.Errorf("transform: RegisterBuilder with empty class name")
	}
	if build == nil {
		return fmt.Errorf("transform: RegisterBuilder %q with nil builder", class)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := builders[class]; dup {
		return fmt.Errorf("transform: duplicate transformation builder %q", class)
	}
	builders[class] = build
	return nil
}

// MustRegisterBuilder is RegisterBuilder panicking on error — for
// package-init registration of built-in classes.
func MustRegisterBuilder(class string, build BuildFunc) {
	if err := RegisterBuilder(class, build); err != nil {
		panic(err)
	}
}

// UnregisterBuilder removes a builder. It exists for tests, which undo
// their registrations in the process-wide catalog.
func UnregisterBuilder(class string) {
	regMu.Lock()
	defer regMu.Unlock()
	delete(builders, class)
}

// LookupBuilder returns the builder registered under class.
func LookupBuilder(class string) (BuildFunc, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	b, ok := builders[class]
	return b, ok
}

// ForProfile returns the candidate transformations for a profile, in the
// order the paper lists them in Figure 1: the answer of the builder
// registered under p.Type(). The result is empty for a nil profile and for
// profile classes with no registered intervention.
func ForProfile(p profile.Profile) []Transformation {
	if p == nil {
		return nil
	}
	if build, ok := LookupBuilder(p.Type()); ok {
		return build(p)
	}
	return nil
}
