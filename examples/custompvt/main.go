// Command custompvt demonstrates growing DataPrism's PVT catalog from user
// code: a monotonicity profile class — numeric attributes that must stay
// sorted ascending — defined and registered purely through the public
// facade, without touching any internal package. Once registered, profile
// discovery, transformation routing, the greedy search, and report grouping
// all pick the class up through the registry, under the name its profiles'
// Type() returns. It exits 1 when the search finds no explanation or the
// profile does not survive the codec round trip.
//
// The staged malfunction: a stream aggregator assumes its input arrives in
// timestamp order. The failing window carries the same timestamp values as
// the passing one — same range, same nulls, same marginal distribution, so
// every built-in profile is satisfied — but permuted. Only the user-defined
// monotonicity profile is discriminative, and its sort-ascending
// transformation is the repair DataPrismGRD verifies.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"

	dataprism "repro"
)

// MonotoneProfile asserts a numeric attribute is sorted ascending. Its Type
// is the name MonotoneClass registers under.
type MonotoneProfile struct{ Attr string }

func (p *MonotoneProfile) Type() string         { return "monotone" }
func (p *MonotoneProfile) Attributes() []string { return []string{p.Attr} }
func (p *MonotoneProfile) Key() string          { return "monotone(" + p.Attr + ")" }
func (p *MonotoneProfile) String() string       { return "⟨Monotone, " + p.Attr + "⟩" }

func (p *MonotoneProfile) SameParams(other dataprism.Profile) bool {
	q, ok := other.(*MonotoneProfile)
	return ok && q.Attr == p.Attr
}

// Violation is the adjacent-inversion fraction: the share of consecutive
// row pairs that run backwards, 0 for a sorted column.
func (p *MonotoneProfile) Violation(d *dataprism.Dataset) float64 {
	vals := d.NumericValues(p.Attr)
	if len(vals) < 2 {
		return 0
	}
	inv := 0
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] {
			inv++
		}
	}
	return float64(inv) / float64(len(vals)-1)
}

// SortAscending repairs a violated monotonicity profile by sorting the
// attribute's values in place (row identity of the column is given up — the
// intervention tests whether order is the root cause, per Definition 9).
type SortAscending struct{ Prof *MonotoneProfile }

func (t *SortAscending) Name() string       { return "sort-ascending" }
func (t *SortAscending) Modifies() []string { return []string{t.Prof.Attr} }

// Coverage is the fraction of rows the sort would move — the inversion
// fraction itself is the natural proxy.
func (t *SortAscending) Coverage(d *dataprism.Dataset) float64 {
	return t.Prof.Violation(d)
}

func (t *SortAscending) Apply(d *dataprism.Dataset, _ *rand.Rand) (*dataprism.Dataset, error) {
	out := d.Clone()
	vals := make([]float64, out.NumRows())
	for i := range vals {
		vals[i] = out.Num(t.Prof.Attr, i)
	}
	sort.Float64s(vals)
	for i, v := range vals {
		out.SetNum(t.Prof.Attr, i, v)
	}
	return out, nil
}

// MonotoneClass bundles the profile class for the registry: discovery
// (every sorted numeric column yields a profile) and repair.
type MonotoneClass struct{}

func (MonotoneClass) Name() string { return "monotone" }

func (MonotoneClass) Describe() string {
	return "numeric attributes that must stay sorted ascending (user-defined example)"
}

func (MonotoneClass) Discover(d *dataprism.Dataset, _ dataprism.DiscoveryOptions) []dataprism.Profile {
	var out []dataprism.Profile
	for _, c := range d.Columns() {
		if c.Kind != dataprism.Numeric {
			continue
		}
		p := &MonotoneProfile{Attr: c.Name}
		if d.NumRows() > 1 && p.Violation(d) == 0 {
			out = append(out, p)
		}
	}
	return out
}

func (MonotoneClass) Transforms(p dataprism.Profile) []dataprism.Transformation {
	if q, ok := p.(*MonotoneProfile); ok {
		return []dataprism.Transformation{&SortAscending{Prof: q}}
	}
	return nil
}

// monotoneWire is the class's canonical artifact form. The profile's only
// parameter is the attribute, so the wire struct is a single field.
type monotoneWire struct {
	Attr string `json:"attr"`
}

// EncodeProfile makes the class persistable into profile artifacts
// (dataprism.ProfileCodec). It receives only the class's own profiles.
func (MonotoneClass) EncodeProfile(p dataprism.Profile) (any, error) {
	q, ok := p.(*MonotoneProfile)
	if !ok {
		return nil, fmt.Errorf("monotone codec cannot encode %T", p)
	}
	return monotoneWire{Attr: q.Attr}, nil
}

func (MonotoneClass) DecodeProfile(data []byte) (dataprism.Profile, error) {
	var w monotoneWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	return &MonotoneProfile{Attr: w.Attr}, nil
}

func main() {
	dataprism.MustRegisterClass(MonotoneClass{})

	const n = 400
	rng := rand.New(rand.NewSource(7))
	ts := make([]float64, n)
	reading := make([]float64, n)
	for i := range ts {
		ts[i] = float64(i)
		reading[i] = rng.NormFloat64()
	}
	pass := dataprism.NewDataset().
		MustAddNumeric("timestamp", ts).
		MustAddNumeric("reading", reading)

	// The failing window: identical values, permuted order. Every
	// order-insensitive profile (domains, outliers, missing, independence)
	// is preserved by construction.
	fail := pass.Clone()
	for i, j := range rng.Perm(n) {
		fail.SetNum("timestamp", i, ts[j])
	}

	// The system malfunctions in proportion to the out-of-order fraction of
	// its input.
	sys := &dataprism.SystemFunc{SystemName: "order-sensitive-aggregator", Score: func(d *dataprism.Dataset) float64 {
		return (&MonotoneProfile{Attr: "timestamp"}).Violation(d)
	}}

	fmt.Println("=== Custom PVT class: monotonicity ===")
	fmt.Println("registered classes:", dataprism.ClassNames())
	fmt.Printf("malfunction(pass) = %.3f, malfunction(fail) = %.3f\n\n",
		sys.MalfunctionScore(pass), sys.MalfunctionScore(fail))

	e := &dataprism.Explainer{System: sys, Tau: 0.05, Seed: 1}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), e.Candidates(pass, fail), fail)
	if err != nil {
		fmt.Fprintln(os.Stderr, "no explanation found:", err)
		os.Exit(1)
	}
	fmt.Printf("DataPrismGRD: %d interventions over %d discriminative candidates\n",
		res.Interventions, res.Discriminative)
	fmt.Printf("minimal explanation: %s\n", res.ExplanationString())
	for _, p := range res.Explanation {
		fmt.Printf("  class %q owns %s\n", p.Profile.Type(), p)
	}
	fmt.Printf("malfunction after repair: %.3f\n", res.FinalScore)

	// Because MonotoneClass also implements ProfileCodec, its profiles
	// survive the trip into a versioned profile artifact and back — the
	// registry dispatches to the class the profile's Type() names.
	orig := &MonotoneProfile{Attr: "timestamp"}
	class, wire, err := dataprism.EncodeProfile(orig)
	if err != nil {
		fmt.Fprintln(os.Stderr, "encoding custom profile:", err)
		os.Exit(1)
	}
	back, err := dataprism.DecodeProfile(class, wire)
	if err != nil {
		fmt.Fprintln(os.Stderr, "decoding custom profile:", err)
		os.Exit(1)
	}
	fmt.Printf("\nartifact round-trip: class %q wire %s decodes to %s\n", class, wire, back)
	if !back.SameParams(orig) {
		fmt.Fprintln(os.Stderr, "the decoded profile lost its parameters")
		os.Exit(1)
	}
}
