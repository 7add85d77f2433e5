// Per-class profile codecs: the serialization half of the PVT-class
// contract. Every built-in class can encode its profiles to a canonical
// JSON value and decode them back, which is what makes a discovered profile
// set persistable as a versioned artifact (internal/artifact). The codec
// obeys three rules:
//
//   - canonical: equal profiles encode to byte-identical JSON. Wire structs
//     have a fixed field order and every set-valued parameter is sorted, so
//     no map iteration order can leak into artifact bytes.
//   - faithful: Decode(Encode(p)) yields a profile with the same Key whose
//     SameParams(p) holds, including sampling fit bounds.
//   - owned: EncodeProfile hands a profile only to the class its Type()
//     names; an Encode that returns nil for it reports a misnamed profile.
//
// The per-class Drift functions score how far the parameters of the "same"
// profile (same Key) moved between two artifacts, on a normalized [0,1]
// scale — the drift magnitudes artifact diffing reports.
package profile

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/pattern"
)

// EncodeProfile looks up the class p.Type() names and returns the class
// name together with p's canonical JSON encoding.
func EncodeProfile(p Profile) (class string, data []byte, err error) {
	class = p.Type()
	c, ok := LookupDiscoverer(class)
	if !ok || c.Encode == nil {
		return "", nil, fmt.Errorf("profile: no registered class %q with a codec can encode %s", class, p.Key())
	}
	v, err := c.Encode(p)
	if err != nil {
		return "", nil, fmt.Errorf("profile: encoding %s under class %q: %w", p.Key(), class, err)
	}
	if v == nil {
		return "", nil, fmt.Errorf("profile: class %q does not encode %s (%T)", class, p.Key(), p)
	}
	data, err = json.Marshal(v)
	if err != nil {
		return "", nil, fmt.Errorf("profile: marshaling %s under class %q: %w", p.Key(), class, err)
	}
	return class, data, nil
}

// DecodeProfile reconstructs a profile from the named class's wire form.
func DecodeProfile(class string, data []byte) (Profile, error) {
	c, ok := LookupDiscoverer(class)
	if !ok {
		return nil, fmt.Errorf("profile: cannot decode class %q: not registered in this process", class)
	}
	if c.Decode == nil {
		return nil, fmt.Errorf("profile: class %q has no codec", class)
	}
	p, err := c.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("profile: decoding class %q: %w", class, err)
	}
	return p, nil
}

// DriftMagnitude scores the normalized parameter drift in [0,1] between two
// spellings of the same profile: 0 when the parameters agree, the owning
// class's Drift function when registered, and 1 for any parameter change
// otherwise.
func DriftMagnitude(class string, old, new Profile) float64 {
	if old == nil || new == nil {
		return 1
	}
	if old.SameParams(new) {
		return 0
	}
	if c, ok := LookupDiscoverer(class); ok && c.Drift != nil {
		return clamp01(c.Drift(old, new))
	}
	return 1
}

func clamp01(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ---------------------------------------------------------------------------
// domain — three concrete types behind one class, discriminated by variant.

type domainJSON struct {
	Variant string           `json:"variant"` // categorical | numeric | text
	Attr    string           `json:"attr"`
	Values  []string         `json:"values,omitempty"`  // categorical, sorted
	Lo      *float64         `json:"lo,omitempty"`      // numeric
	Hi      *float64         `json:"hi,omitempty"`      // numeric
	Pattern *pattern.Pattern `json:"pattern,omitempty"` // text
}

func encodeDomain(p Profile) (any, error) {
	switch q := p.(type) {
	case *DomainCategorical:
		return domainJSON{Variant: "categorical", Attr: q.Attr, Values: q.SortedValues()}, nil
	case *DomainNumeric:
		lo, hi := q.Lo, q.Hi
		return domainJSON{Variant: "numeric", Attr: q.Attr, Lo: &lo, Hi: &hi}, nil
	case *DomainText:
		return domainJSON{Variant: "text", Attr: q.Attr, Pattern: q.Pattern}, nil
	}
	return nil, nil
}

func decodeDomain(data []byte) (Profile, error) {
	var w domainJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	switch w.Variant {
	case "categorical":
		values := make(map[string]bool, len(w.Values))
		for _, v := range w.Values {
			values[v] = true
		}
		return &DomainCategorical{Attr: w.Attr, Values: values}, nil
	case "numeric":
		if w.Lo == nil || w.Hi == nil {
			return nil, fmt.Errorf("numeric domain %q without bounds", w.Attr)
		}
		return &DomainNumeric{Attr: w.Attr, Lo: *w.Lo, Hi: *w.Hi}, nil
	case "text":
		if w.Pattern == nil {
			return nil, fmt.Errorf("text domain %q without pattern", w.Attr)
		}
		return &DomainText{Attr: w.Attr, Pattern: w.Pattern}, nil
	}
	return nil, fmt.Errorf("unknown domain variant %q", w.Variant)
}

// driftDomain: Jaccard distance of categorical value sets, relative bound
// movement over the union span for numeric ranges, and all-or-nothing for
// text patterns (any format change is a full drift — there is no useful
// metric between regular expressions).
func driftDomain(old, new Profile) float64 {
	switch o := old.(type) {
	case *DomainCategorical:
		n, ok := new.(*DomainCategorical)
		if !ok {
			return 1
		}
		inter, union := 0, len(n.Values)
		for v := range o.Values {
			if n.Values[v] {
				inter++
			} else {
				union++
			}
		}
		if union == 0 {
			return 0
		}
		return 1 - float64(inter)/float64(union)
	case *DomainNumeric:
		n, ok := new.(*DomainNumeric)
		if !ok {
			return 1
		}
		span := math.Max(o.Hi, n.Hi) - math.Min(o.Lo, n.Lo)
		if span <= 0 {
			return 1
		}
		return (math.Abs(n.Lo-o.Lo) + math.Abs(n.Hi-o.Hi)) / (2 * span)
	}
	return 1
}

// ---------------------------------------------------------------------------
// missing / outlier — scalar thresholds on a [0,1] fraction scale.

type missingJSON struct {
	Attr  string  `json:"attr"`
	Theta float64 `json:"theta"`
}

func encodeMissing(p Profile) (any, error) {
	if q, ok := p.(*Missing); ok {
		return missingJSON{Attr: q.Attr, Theta: q.Theta}, nil
	}
	return nil, nil
}

func decodeMissing(data []byte) (Profile, error) {
	var w missingJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	return &Missing{Attr: w.Attr, Theta: w.Theta}, nil
}

func driftMissing(old, new Profile) float64 {
	o, ok1 := old.(*Missing)
	n, ok2 := new.(*Missing)
	if !ok1 || !ok2 {
		return 1
	}
	return math.Abs(n.Theta - o.Theta)
}

type outlierJSON struct {
	Attr  string  `json:"attr"`
	K     float64 `json:"k"`
	Theta float64 `json:"theta"`
}

func encodeOutlier(p Profile) (any, error) {
	if q, ok := p.(*Outlier); ok {
		return outlierJSON{Attr: q.Attr, K: q.K, Theta: q.Theta}, nil
	}
	return nil, nil
}

func decodeOutlier(data []byte) (Profile, error) {
	var w outlierJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	return &Outlier{Attr: w.Attr, K: w.K, Theta: w.Theta}, nil
}

func driftOutlier(old, new Profile) float64 {
	o, ok1 := old.(*Outlier)
	n, ok2 := new.(*Outlier)
	if !ok1 || !ok2 || math.Abs(o.K-n.K) > paramEps {
		return 1 // a different detector, not a drifted threshold
	}
	return math.Abs(n.Theta - o.Theta)
}

// ---------------------------------------------------------------------------
// selectivity — a predicate plus its observed fraction.

type selectivityJSON struct {
	Pred  []dataset.Clause `json:"pred"`
	Theta float64          `json:"theta"`
	Fit   *Bound           `json:"fit,omitempty"`
}

func encodeSelectivity(p Profile) (any, error) {
	if q, ok := p.(*Selectivity); ok {
		return selectivityJSON{Pred: q.Pred.Clauses, Theta: q.Theta, Fit: q.Fit}, nil
	}
	return nil, nil
}

func decodeSelectivity(data []byte) (Profile, error) {
	var w selectivityJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	return &Selectivity{Pred: dataset.Predicate{Clauses: w.Pred}, Theta: w.Theta, Fit: w.Fit}, nil
}

func driftSelectivity(old, new Profile) float64 {
	o, ok1 := old.(*Selectivity)
	n, ok2 := new.(*Selectivity)
	if !ok1 || !ok2 {
		return 1
	}
	return math.Abs(n.Theta - o.Theta)
}

// ---------------------------------------------------------------------------
// indep — chi-squared and Pearson variants; indep-causal is its own class.

type indepJSON struct {
	Variant string  `json:"variant"` // chi | pearson
	AttrA   string  `json:"attr_a"`
	AttrB   string  `json:"attr_b"`
	Alpha   float64 `json:"alpha"`
	Fit     *Bound  `json:"fit,omitempty"`
}

func encodeIndep(p Profile) (any, error) {
	switch q := p.(type) {
	case *IndepChi:
		return indepJSON{Variant: "chi", AttrA: q.AttrA, AttrB: q.AttrB, Alpha: q.Alpha, Fit: q.Fit}, nil
	case *IndepPearson:
		return indepJSON{Variant: "pearson", AttrA: q.AttrA, AttrB: q.AttrB, Alpha: q.Alpha, Fit: q.Fit}, nil
	}
	return nil, nil
}

func decodeIndep(data []byte) (Profile, error) {
	var w indepJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	switch w.Variant {
	case "chi":
		return &IndepChi{AttrA: w.AttrA, AttrB: w.AttrB, Alpha: w.Alpha, Fit: w.Fit}, nil
	case "pearson":
		return &IndepPearson{AttrA: w.AttrA, AttrB: w.AttrB, Alpha: w.Alpha, Fit: w.Fit}, nil
	}
	return nil, fmt.Errorf("unknown indep variant %q", w.Variant)
}

// driftIndep: Pearson alphas are |r| ∈ [0,1], so their difference is the
// drift; chi-squared statistics are unbounded, so the drift saturates
// through 1 − exp(−|Δχ²|), mirroring the violation scale.
func driftIndep(old, new Profile) float64 {
	switch o := old.(type) {
	case *IndepChi:
		n, ok := new.(*IndepChi)
		if !ok {
			return 1
		}
		return 1 - math.Exp(-math.Abs(n.Alpha-o.Alpha))
	case *IndepPearson:
		n, ok := new.(*IndepPearson)
		if !ok {
			return 1
		}
		return math.Abs(math.Abs(n.Alpha) - math.Abs(o.Alpha))
	}
	return 1
}

type indepCausalJSON struct {
	AttrA string  `json:"attr_a"`
	AttrB string  `json:"attr_b"`
	Alpha float64 `json:"alpha"`
	Fit   *Bound  `json:"fit,omitempty"`
}

func encodeIndepCausal(p Profile) (any, error) {
	if q, ok := p.(*IndepCausal); ok {
		return indepCausalJSON{AttrA: q.AttrA, AttrB: q.AttrB, Alpha: q.Alpha, Fit: q.Fit}, nil
	}
	return nil, nil
}

func decodeIndepCausal(data []byte) (Profile, error) {
	var w indepCausalJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	return &IndepCausal{AttrA: w.AttrA, AttrB: w.AttrB, Alpha: w.Alpha, Fit: w.Fit}, nil
}

func driftIndepCausal(old, new Profile) float64 {
	o, ok1 := old.(*IndepCausal)
	n, ok2 := new.(*IndepCausal)
	if !ok1 || !ok2 {
		return 1
	}
	return math.Abs(n.Alpha - o.Alpha)
}

// ---------------------------------------------------------------------------
// distribution — the reference decile grid.

type distributionJSON struct {
	Attr      string    `json:"attr"`
	Quantiles []float64 `json:"quantiles"`
	Delta     float64   `json:"delta"`
	Fit       *Bound    `json:"fit,omitempty"`
}

func encodeDistribution(p Profile) (any, error) {
	if q, ok := p.(*Distribution); ok {
		return distributionJSON{Attr: q.Attr, Quantiles: q.Quantiles, Delta: q.Delta, Fit: q.Fit}, nil
	}
	return nil, nil
}

func decodeDistribution(data []byte) (Profile, error) {
	var w distributionJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	return &Distribution{Attr: w.Attr, Quantiles: w.Quantiles, Delta: w.Delta, Fit: w.Fit}, nil
}

// driftDistribution mirrors Deviation: mean absolute decile movement,
// normalized by the union of the two reference ranges.
func driftDistribution(old, new Profile) float64 {
	o, ok1 := old.(*Distribution)
	n, ok2 := new.(*Distribution)
	if !ok1 || !ok2 || len(o.Quantiles) == 0 || len(o.Quantiles) != len(n.Quantiles) {
		return 1
	}
	last := len(o.Quantiles) - 1
	span := math.Max(o.Quantiles[last], n.Quantiles[last]) - math.Min(o.Quantiles[0], n.Quantiles[0])
	if span <= 0 {
		span = 1
	}
	sum := 0.0
	for i := range o.Quantiles {
		sum += math.Abs(n.Quantiles[i] - o.Quantiles[i])
	}
	return sum / float64(len(o.Quantiles)) / span
}

// ---------------------------------------------------------------------------
// frequency — sampling cadence.

type frequencyJSON struct {
	Attr      string  `json:"attr"`
	MedianGap float64 `json:"median_gap"`
}

func encodeFrequency(p Profile) (any, error) {
	if q, ok := p.(*Frequency); ok {
		return frequencyJSON{Attr: q.Attr, MedianGap: q.MedianGap}, nil
	}
	return nil, nil
}

func decodeFrequency(data []byte) (Profile, error) {
	var w frequencyJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	return &Frequency{Attr: w.Attr, MedianGap: w.MedianGap}, nil
}

// driftFrequency mirrors the violation scale: |log2 ratio| / 2, so a 2×
// cadence change scores 0.5 and a 4× change saturates at 1.
func driftFrequency(old, new Profile) float64 {
	o, ok1 := old.(*Frequency)
	n, ok2 := new.(*Frequency)
	if !ok1 || !ok2 || o.MedianGap <= 0 || n.MedianGap <= 0 {
		return 1
	}
	return math.Abs(math.Log2(n.MedianGap/o.MedianGap)) / 2
}

// ---------------------------------------------------------------------------
// fd / unique / inclusion — dependency extensions.

type fdJSON struct {
	Det     string  `json:"det"`
	Dep     string  `json:"dep"`
	Epsilon float64 `json:"epsilon"`
	Fit     *Bound  `json:"fit,omitempty"`
}

func encodeFD(p Profile) (any, error) {
	if q, ok := p.(*FuncDep); ok {
		return fdJSON{Det: q.Det, Dep: q.Dep, Epsilon: q.Epsilon, Fit: q.Fit}, nil
	}
	return nil, nil
}

func decodeFD(data []byte) (Profile, error) {
	var w fdJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	return &FuncDep{Det: w.Det, Dep: w.Dep, Epsilon: w.Epsilon, Fit: w.Fit}, nil
}

func driftFD(old, new Profile) float64 {
	o, ok1 := old.(*FuncDep)
	n, ok2 := new.(*FuncDep)
	if !ok1 || !ok2 {
		return 1
	}
	return math.Abs(n.Epsilon - o.Epsilon)
}

type uniqueJSON struct {
	Attr  string  `json:"attr"`
	Theta float64 `json:"theta"`
	Fit   *Bound  `json:"fit,omitempty"`
}

func encodeUnique(p Profile) (any, error) {
	if q, ok := p.(*Unique); ok {
		return uniqueJSON{Attr: q.Attr, Theta: q.Theta, Fit: q.Fit}, nil
	}
	return nil, nil
}

func decodeUnique(data []byte) (Profile, error) {
	var w uniqueJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	return &Unique{Attr: w.Attr, Theta: w.Theta, Fit: w.Fit}, nil
}

func driftUnique(old, new Profile) float64 {
	o, ok1 := old.(*Unique)
	n, ok2 := new.(*Unique)
	if !ok1 || !ok2 {
		return 1
	}
	return math.Abs(n.Theta - o.Theta)
}

type inclusionJSON struct {
	Child  string `json:"child"`
	Parent string `json:"parent"`
	Fit    *Bound `json:"fit,omitempty"`
}

func encodeInclusion(p Profile) (any, error) {
	if q, ok := p.(*Inclusion); ok {
		return inclusionJSON{Child: q.Child, Parent: q.Parent, Fit: q.Fit}, nil
	}
	return nil, nil
}

func decodeInclusion(data []byte) (Profile, error) {
	var w inclusionJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	return &Inclusion{Child: w.Child, Parent: w.Parent, Fit: w.Fit}, nil
}

// ---------------------------------------------------------------------------
// conditional — a predicate plus a recursively encoded inner profile.

type conditionalJSON struct {
	Cond  []dataset.Clause `json:"cond"`
	Class string           `json:"class"`
	Inner json.RawMessage  `json:"inner"`
}

func encodeConditional(p Profile) (any, error) {
	q, ok := p.(*Conditional)
	if !ok {
		return nil, nil
	}
	class, inner, err := EncodeProfile(q.Inner)
	if err != nil {
		return nil, fmt.Errorf("inner profile: %w", err)
	}
	return conditionalJSON{Cond: q.Cond.Clauses, Class: class, Inner: inner}, nil
}

func decodeConditional(data []byte) (Profile, error) {
	var w conditionalJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	inner, err := DecodeProfile(w.Class, w.Inner)
	if err != nil {
		return nil, fmt.Errorf("inner profile: %w", err)
	}
	return &Conditional{Cond: dataset.Predicate{Clauses: w.Cond}, Inner: inner}, nil
}

// driftConditional delegates to the inner profile's class, which its Type
// names.
func driftConditional(old, new Profile) float64 {
	o, ok1 := old.(*Conditional)
	n, ok2 := new.(*Conditional)
	if !ok1 || !ok2 || o.Cond.Key() != n.Cond.Key() {
		return 1
	}
	return DriftMagnitude(o.Inner.Type(), o.Inner, n.Inner)
}
