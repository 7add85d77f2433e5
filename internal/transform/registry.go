package transform

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/profile"
)

// BuildFunc is the transformation half of a PVT class: given a profile, it
// returns the candidate repairs when the profile belongs to the class, and
// nil otherwise. A builder must claim only its own class's profiles (via
// type assertion), so that exactly one builder answers for any profile.
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

// UnregisterBuilder removes a builder. It exists for tests and for rolling
// back a partially failed pvt.Register.
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

// snapshot returns the builders in deterministic (name-sorted) order.
func snapshot() []BuildFunc {
	regMu.RLock()
	names := make([]string, 0, len(builders))
	for name := range builders {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]BuildFunc, len(names))
	for i, name := range names {
		out[i] = builders[name]
	}
	regMu.RUnlock()
	return out
}

// ForProfile returns the candidate transformations for a profile, in the
// order the paper lists them in Figure 1: it consults the registered
// builders in deterministic name order and returns the first (and, by the
// claim-only-your-own rule, only) non-empty answer. The result is empty for
// profile classes with no registered intervention.
func ForProfile(p profile.Profile) []Transformation {
	for _, build := range snapshot() {
		if ts := build(p); len(ts) > 0 {
			return ts
		}
	}
	return nil
}

// ClassOf returns the registry class name owning a profile — the class
// whose builder claims it. Profiles no builder claims report their own
// Type() as a fallback, so reports can still group them.
func ClassOf(p profile.Profile) string {
	regMu.RLock()
	names := make([]string, 0, len(builders))
	for name := range builders {
		names = append(names, name)
	}
	regMu.RUnlock()
	sort.Strings(names)
	for _, name := range names {
		b, ok := LookupBuilder(name)
		if ok && len(b(p)) > 0 {
			return name
		}
	}
	return p.Type()
}
