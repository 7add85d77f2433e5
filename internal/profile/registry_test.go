package profile

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// classEnabled reports whether o would discover the named class.
func classEnabled(o *Options, name string) bool { return slices.Contains(o.EnabledClasses(), name) }

func TestRegistryNameSorted(t *testing.T) {
	ds := Discoverers()
	if len(ds) < 12 {
		t.Fatalf("built-in classes = %d, want at least 12", len(ds))
	}
	names := make([]string, len(ds))
	for i, c := range ds {
		names[i] = c.Name
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("Discoverers not name-sorted: %v", names)
	}
	for _, want := range []string{"domain", "missing", "outlier", "selectivity", "indep",
		"indep-causal", "distribution", "frequency", "fd", "unique", "inclusion", "conditional"} {
		if _, ok := LookupDiscoverer(want); !ok {
			t.Errorf("built-in class %q not registered", want)
		}
	}
}

func TestRegistryDuplicateRejected(t *testing.T) {
	c := Discoverer{
		Name:     "dup-test-class",
		Discover: func(d *dataset.Dataset, opts Options) []Profile { return nil },
	}
	if err := RegisterDiscoverer(c); err != nil {
		t.Fatalf("first registration failed: %v", err)
	}
	defer UnregisterDiscoverer(c.Name)
	if err := RegisterDiscoverer(c); err == nil {
		t.Fatal("duplicate registration did not fail")
	} else if !strings.Contains(err.Error(), "dup-test-class") {
		t.Errorf("duplicate error does not name the class: %v", err)
	}
	if err := RegisterDiscoverer(Discoverer{Name: "", Discover: c.Discover}); err == nil {
		t.Error("empty-name registration did not fail")
	}
	if err := RegisterDiscoverer(Discoverer{Name: "nil-discover"}); err == nil {
		t.Error("nil-Discover registration did not fail")
	}
}

func TestClassSetPrecedence(t *testing.T) {
	// Defaults: core classes on, extensions off.
	o := Options{}
	if !classEnabled(&o, "domain") || !classEnabled(&o, "indep") {
		t.Error("default-on class reported disabled")
	}
	if classEnabled(&o, "fd") || classEnabled(&o, "indep-causal") {
		t.Error("default-off class reported enabled")
	}
	if classEnabled(&o, "no-such-class") {
		t.Error("unregistered class reported enabled")
	}

	// Classes entries overlay the registry defaults in both directions.
	o = Options{}
	o.Classes = map[string]bool{"fd": true, "domain": false}
	if !classEnabled(&o, "fd") {
		t.Error("Classes include did not override the default-off registration")
	}
	if classEnabled(&o, "domain") {
		t.Error("Classes exclude did not override the default-on registration")
	}
	// Names absent from the map keep their registered defaults.
	if !classEnabled(&o, "missing") || classEnabled(&o, "unique") {
		t.Error("Classes overlay disturbed unrelated defaults")
	}

	// EnabledClasses reflects the same resolution, sorted by class name.
	got := o.EnabledClasses()
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("EnabledClasses not sorted: %v", got)
		}
	}
	set := make(map[string]bool, len(got))
	for _, name := range got {
		set[name] = true
	}
	if !set["fd"] || set["domain"] || !set["missing"] || set["unique"] {
		t.Errorf("EnabledClasses resolution wrong: %v", got)
	}
}

func TestDiscoverClassesSelector(t *testing.T) {
	d := peopleLike()
	opts := Options{}
	opts.Classes = map[string]bool{"selectivity": false, "indep": false, "outlier": false}
	ps := Discover(d, opts)
	if countType(ps, "selectivity")+countType(ps, "indep")+countType(ps, "outlier") != 0 {
		t.Error("Classes-excluded classes still discovered")
	}
	if countType(ps, "domain") == 0 || countType(ps, "missing") == 0 {
		t.Error("default-on classes missing")
	}

	// Byte-identical to naming the surviving classes as an explicit set.
	exact := Options{}
	exact.Classes = make(map[string]bool)
	for _, c := range Discoverers() {
		exact.Classes[c.Name] = false
	}
	for _, name := range opts.EnabledClasses() {
		exact.Classes[name] = true
	}
	ep := Discover(d, exact)
	if len(ep) != len(ps) {
		t.Fatalf("sparse Classes path found %d profiles, exact-set path %d", len(ps), len(ep))
	}
	for i := range ps {
		if ps[i].String() != ep[i].String() {
			t.Fatalf("profile %d differs: %s vs %s", i, ps[i], ep[i])
		}
	}
}

// TestDiscoverCustomClass registers a throwaway class and checks Discover
// consults it exactly once per dataset, honoring the include/exclude set.
func TestDiscoverCustomClass(t *testing.T) {
	calls := 0
	MustRegisterDiscoverer(Discoverer{
		Name:      "zz-custom-test",
		Describe:  "test-only class",
		DefaultOn: false,
		Discover: func(d *dataset.Dataset, opts Options) []Profile {
			calls++
			return nil
		},
	})
	defer UnregisterDiscoverer("zz-custom-test")

	d := peopleLike()
	opts := Options{}
	opts.Workers = 1
	if Discover(d, opts); calls != 0 {
		t.Fatalf("default-off custom class consulted %d times, want 0", calls)
	}
	opts.Classes = map[string]bool{"zz-custom-test": true}
	Discover(d, opts)
	if calls != 1 {
		t.Fatalf("custom class consulted %d times, want exactly 1", calls)
	}
}
