package artifact

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/profile"
)

// sensorData synthesizes a numeric+categorical feed; scale/offset shift the
// numeric column to model drift between builds.
func sensorData(n int, seed int64, scale, offset float64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	status := make([]string, n)
	for i := range vals {
		vals[i] = (20+4*rng.NormFloat64())*scale + offset
		status[i] = []string{"ok", "ok", "ok", "standby"}[rng.Intn(4)]
	}
	d := dataset.New()
	d.MustAddNumeric("reading", vals)
	d.MustAddCategorical("status", status)
	return d
}

// TestBuildDeterminism is the core artifact property: the same dataset
// content under the same options yields byte-identical artifacts regardless
// of chunk geometry, worker count, or repetition — with and without sampled
// fitting, whose reservoir draws are chunk-seeded and therefore the
// adversarial case.
func TestBuildDeterminism(t *testing.T) {
	const rows = 1000
	base := sensorData(rows, 1, 1, 0)

	configs := []struct {
		name string
		tune func(o *profile.Options)
	}{
		{"exact", func(o *profile.Options) {}},
		{"sampled", func(o *profile.Options) {
			o.Sample = profile.SampleOptions{Cap: 200, Seed: 3}
		}},
		{"extended-classes", func(o *profile.Options) {
			o.Classes = map[string]bool{"distribution": true, "fd": true, "unique": true, "frequency": true}
		}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			var ref []byte
			for _, chunk := range []int{1, 7, 64, rows - 1, dataset.DefaultChunkSize} {
				for _, workers := range []int{1, 8} {
					for rep := 0; rep < 2; rep++ {
						opts := profile.Options{}
						opts.Workers = workers
						cfg.tune(&opts)
						a, err := Build(base.Rechunk(chunk), opts)
						if err != nil {
							t.Fatalf("Build(chunk=%d, workers=%d): %v", chunk, workers, err)
						}
						got, err := a.Bytes()
						if err != nil {
							t.Fatalf("Bytes: %v", err)
						}
						if ref == nil {
							ref = got
							if len(a.Profiles) == 0 {
								t.Fatal("reference artifact has no profiles")
							}
							continue
						}
						if !bytes.Equal(got, ref) {
							t.Fatalf("artifact bytes diverge at chunk=%d workers=%d rep=%d:\n%s\nvs reference:\n%s",
								chunk, workers, rep, got, ref)
						}
					}
				}
			}
		})
	}
}

// TestArtifactHeader pins the header invariants downstream tooling keys on.
func TestArtifactHeader(t *testing.T) {
	d := sensorData(500, 1, 1, 0)
	opts := profile.Options{}
	a, err := Build(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.SchemaVersion != SchemaVersion {
		t.Errorf("SchemaVersion = %d, want %d", a.SchemaVersion, SchemaVersion)
	}
	if a.FingerprintAlgoVersion != dataset.FingerprintAlgoVersion {
		t.Errorf("FingerprintAlgoVersion = %d, want %d", a.FingerprintAlgoVersion, dataset.FingerprintAlgoVersion)
	}
	if want := fmt.Sprintf("%016x", d.Fingerprint()); a.Fingerprint != want {
		t.Errorf("Fingerprint = %q, want %q", a.Fingerprint, want)
	}
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(a.Fingerprint) {
		t.Errorf("Fingerprint %q is not 16 lowercase hex digits", a.Fingerprint)
	}
	if a.Rows != 500 || a.Cols != 2 {
		t.Errorf("shape = %dx%d, want 500x2", a.Rows, a.Cols)
	}
	if !sort.StringsAreSorted(a.Classes) {
		t.Errorf("Classes not sorted: %v", a.Classes)
	}
	if a.Sampling != nil {
		t.Error("exact build recorded a Sampling header")
	}
	for i := 1; i < len(a.Profiles); i++ {
		p, q := a.Profiles[i-1], a.Profiles[i]
		if p.Class > q.Class || (p.Class == q.Class && p.Key >= q.Key) {
			t.Fatalf("Profiles not (class, key)-sorted at %d: %s/%s before %s/%s",
				i, p.Class, p.Key, q.Class, q.Key)
		}
	}

	opts.Sample = profile.SampleOptions{Cap: 100, Seed: 9}
	s, err := Build(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Sampling == nil || s.Sampling.Cap != 100 || s.Sampling.Seed != 9 {
		t.Errorf("sampled build header = %+v, want cap 100 seed 9", s.Sampling)
	}
}

// TestArtifactFileRoundTrip checks WriteFile/ReadFile preserve the bytes
// and that every persisted entry reconstructs into a live profile with the
// recorded key.
func TestArtifactFileRoundTrip(t *testing.T) {
	d := sensorData(400, 2, 1, 0)
	a, err := Build(d, profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := a.Bytes()
	bb, _ := back.Bytes()
	if !bytes.Equal(ab, bb) {
		t.Error("artifact bytes change across a file round trip")
	}
	decoded, err := back.DecodedProfiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(a.Profiles) {
		t.Fatalf("decoded %d profiles, artifact has %d", len(decoded), len(a.Profiles))
	}
	for i, dp := range decoded {
		if dp.Profile.Key() != a.Profiles[i].Key {
			t.Errorf("entry %d: decoded key %q, recorded %q", i, dp.Profile.Key(), a.Profiles[i].Key)
		}
	}
}

// TestFileBaselineComparesCleanAgainstFreshBuild is the watch regression
// guard: an artifact loaded from its indented file form must byte-compare
// equal against a fresh in-memory build of the same content. Decode
// re-compacts entry bytes to the canonical spelling; without that, every
// profile shows up as a magnitude-0 "change" on every watch tick.
func TestFileBaselineComparesCleanAgainstFreshBuild(t *testing.T) {
	opts := profile.Options{}
	a, err := Build(sensorData(500, 1, 1, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Build(sensorData(500, 1, 1, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := Compare(loaded, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Empty() {
		t.Errorf("file-loaded baseline diffs against a fresh build of the same content:\n%s", diff)
	}
}

// TestDecodeVersionGate checks stale readers fail loudly instead of
// mis-decoding an artifact from another schema generation.
func TestDecodeVersionGate(t *testing.T) {
	a, err := Build(sensorData(100, 1, 1, 0), profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, _ := a.Bytes()
	future := bytes.Replace(data,
		[]byte(fmt.Sprintf(`"schema_version": %d`, SchemaVersion)),
		[]byte(fmt.Sprintf(`"schema_version": %d`, SchemaVersion+1)), 1)
	if _, err := Decode(future); err == nil {
		t.Error("Decode accepted a future schema version")
	} else if !strings.Contains(err.Error(), "re-profile") {
		t.Errorf("version error does not tell the user the remedy: %v", err)
	}
	if _, err := Decode([]byte("{not json")); err == nil {
		t.Error("Decode accepted malformed JSON")
	}
}

// TestCompatibleGates checks the two comparability preconditions.
func TestCompatibleGates(t *testing.T) {
	a, err := Build(sensorData(100, 1, 1, 0), profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := *a
	if err := a.Compatible(&b); err != nil {
		t.Errorf("identical artifacts incompatible: %v", err)
	}
	b.FingerprintAlgoVersion++
	if err := a.Compatible(&b); err == nil {
		t.Error("differing fingerprint algo generations reported compatible")
	}
	c := *a
	c.SchemaVersion++
	if err := a.Compatible(&c); err == nil {
		t.Error("differing schema versions reported compatible")
	}
}
