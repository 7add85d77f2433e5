package profile

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/dataset"
)

// Discoverer is the discovery half of a PVT class: a named, self-describing
// strategy that learns the minimal profiles of its class a dataset
// satisfies. The process-wide catalog of discoverers is what Discover
// iterates; the class's transformation builder registers under the same
// name in internal/transform.
type Discoverer struct {
	// Name is the registry key, e.g. "domain" or "indep". It doubles as the
	// selector in Options.Classes and the CLI's -profiles flag, and every
	// profile of the class returns it from Type.
	Name string
	// Describe is a one-line human-readable summary for -list-profiles.
	Describe string
	// DefaultOn reports whether the class is discovered without an explicit
	// opt-in (the paper's Figure 1 core classes are on; extensions are off).
	DefaultOn bool
	// Discover learns the class's profiles on d. It must be deterministic
	// and safe for concurrent use: Discover runs once per dataset per
	// discovery, possibly on a worker goroutine.
	Discover func(d *dataset.Dataset, opts Options) []Profile
	// Encode serializes a profile of this class into its canonical
	// JSON-encodable wire value — the per-class codec surface backing
	// profile artifacts (internal/artifact). EncodeProfile calls it only for
	// profiles whose Type is Name; it returns an error when such a profile
	// cannot be encoded. The returned value must marshal to the same bytes
	// for equal profiles: no map-ordered or pointer-identity state may leak
	// into it. Nil means the class has no codec and its profiles cannot be
	// persisted.
	Encode func(p Profile) (any, error)
	// Decode reconstructs a profile from the wire value Encode produced.
	// Decode(Encode(p)) must yield a profile with the same Key whose
	// SameParams(p) holds. Set exactly when Encode is.
	Decode func(data []byte) (Profile, error)
	// Drift returns the normalized parameter-drift magnitude in [0,1]
	// between two spellings of the same profile (same Key, parameters
	// differing), for artifact diffing. Nil falls back to the generic
	// magnitude 1 for any parameter change.
	Drift func(old, new Profile) float64
}

var (
	regMu       sync.RWMutex
	discoverers = make(map[string]Discoverer)
)

// RegisterDiscoverer adds a discoverer to the process-wide catalog. It
// fails loudly on an empty name, a nil Discover function, or a duplicate
// name — silently replacing a class would make discovery depend on
// registration order.
func RegisterDiscoverer(c Discoverer) error {
	if c.Name == "" {
		return fmt.Errorf("profile: RegisterDiscoverer with empty name")
	}
	if c.Discover == nil {
		return fmt.Errorf("profile: RegisterDiscoverer %q with nil Discover", c.Name)
	}
	if (c.Encode == nil) != (c.Decode == nil) {
		return fmt.Errorf("profile: RegisterDiscoverer %q with half a codec (Encode and Decode must be set together)", c.Name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := discoverers[c.Name]; dup {
		return fmt.Errorf("profile: duplicate profile class %q", c.Name)
	}
	discoverers[c.Name] = c
	return nil
}

// MustRegisterDiscoverer is RegisterDiscoverer panicking on error — for
// package-init registration of built-in classes.
func MustRegisterDiscoverer(c Discoverer) {
	if err := RegisterDiscoverer(c); err != nil {
		panic(err)
	}
}

// UnregisterDiscoverer removes a class from the catalog. It exists for
// tests and for rolling back a registration whose builder half failed;
// production code should never unregister built-in classes.
func UnregisterDiscoverer(name string) {
	regMu.Lock()
	defer regMu.Unlock()
	delete(discoverers, name)
}

// LookupDiscoverer returns the discoverer registered under name.
func LookupDiscoverer(name string) (Discoverer, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := discoverers[name]
	return c, ok
}

// Discoverers returns the registered discoverers sorted by name — the
// deterministic iteration order every registry-driven surface (discovery,
// -list-profiles, reports) uses.
func Discoverers() []Discoverer {
	regMu.RLock()
	out := make([]Discoverer, 0, len(discoverers))
	for _, c := range discoverers {
		out = append(out, c)
	}
	regMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// classSet resolves the effective enabled-class set for one discovery run:
// registry defaults first, then the explicit Classes entries on top.
func (o *Options) classSet() map[string]bool {
	s := make(map[string]bool)
	for _, c := range Discoverers() {
		s[c.Name] = c.DefaultOn
	}
	for name, on := range o.Classes {
		s[name] = on
	}
	return s
}

// EnabledClasses returns the sorted names of the registered classes this
// configuration would discover — the class list a profile artifact records.
func (o *Options) EnabledClasses() []string {
	s := o.classSet()
	var out []string
	for _, c := range Discoverers() {
		if s[c.Name] {
			out = append(out, c.Name)
		}
	}
	return out
}
