package profile

import (
	"math"

	"repro/internal/causal"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/stats"
)

// The built-in profile classes of Figure 1 plus the extensions. Each class
// registers its discovery half here; the matching transformation builders
// register under the same names in internal/transform.
func init() {
	MustRegisterDiscoverer(Discoverer{
		Name:      "domain",
		Describe:  "value domains per attribute: categorical sets, numeric ranges, text patterns (Figure 1 rows 1-3)",
		DefaultOn: true,
		Discover:  discoverDomains,
		Encode:    encodeDomain,
		Decode:    decodeDomain,
		Drift:     driftDomain,
	})
	MustRegisterDiscoverer(Discoverer{
		Name:      "missing",
		Describe:  "allowed NULL fraction per attribute (Figure 1 row 5)",
		DefaultOn: true,
		Discover:  discoverMissing,
		Encode:    encodeMissing,
		Decode:    decodeMissing,
		Drift:     driftMissing,
	})
	MustRegisterDiscoverer(Discoverer{
		Name:      "outlier",
		Describe:  "allowed k-sigma outlier fraction for numeric attributes (Figure 1 row 4)",
		DefaultOn: true,
		Discover:  discoverOutliers,
		Encode:    encodeOutlier,
		Decode:    decodeOutlier,
		Drift:     driftOutlier,
	})
	MustRegisterDiscoverer(Discoverer{
		Name:      "selectivity",
		Describe:  "selectivity of equality predicates on small-domain categorical attributes (Figure 1 row 6)",
		DefaultOn: true,
		Discover:  discoverSelectivity,
		Encode:    encodeSelectivity,
		Decode:    decodeSelectivity,
		Drift:     driftSelectivity,
	})
	MustRegisterDiscoverer(Discoverer{
		Name:      "indep",
		Describe:  "pairwise independence: chi-squared for categorical, Pearson for numeric pairs (Figure 1 rows 7-8)",
		DefaultOn: true,
		Discover:  discoverIndep,
		Encode:    encodeIndep,
		Decode:    decodeIndep,
		Drift:     driftIndep,
	})
	MustRegisterDiscoverer(Discoverer{
		Name:      "indep-causal",
		Describe:  "pairwise causal coefficients for mixed categorical/numeric pairs (Figure 1 row 9)",
		DefaultOn: false,
		Discover:  discoverIndepCausal,
		Encode:    encodeIndepCausal,
		Decode:    decodeIndepCausal,
		Drift:     driftIndepCausal,
	})
	MustRegisterDiscoverer(Discoverer{
		Name:      "distribution",
		Describe:  "decile-grid distribution (drift) profiles for numeric attributes (extension)",
		DefaultOn: false,
		Discover:  discoverDistributions,
		Encode:    encodeDistribution,
		Decode:    decodeDistribution,
		Drift:     driftDistribution,
	})
	MustRegisterDiscoverer(Discoverer{
		Name:      "frequency",
		Describe:  "sampling cadence (median gap) of monotone numeric attributes (extension)",
		DefaultOn: false,
		Discover:  discoverFrequencies,
		Encode:    encodeFrequency,
		Decode:    decodeFrequency,
		Drift:     driftFrequency,
	})
	MustRegisterDiscoverer(Discoverer{
		Name:      "fd",
		Describe:  "approximate functional dependencies between categorical attribute pairs (extension)",
		DefaultOn: false,
		Discover:  discoverFDs,
		Encode:    encodeFD,
		Decode:    decodeFD,
		Drift:     driftFD,
	})
	MustRegisterDiscoverer(Discoverer{
		Name:      "unique",
		Describe:  "key-ness (near-unique) profiles per attribute (extension)",
		DefaultOn: false,
		Discover:  discoverUnique,
		Encode:    encodeUnique,
		Decode:    decodeUnique,
		Drift:     driftUnique,
	})
	MustRegisterDiscoverer(Discoverer{
		Name:      "inclusion",
		Describe:  "inclusion dependencies between small-domain string attribute pairs (extension)",
		DefaultOn: false,
		Discover:  discoverInclusions,
		Encode:    encodeInclusion,
		Decode:    decodeInclusion,
	})
	MustRegisterDiscoverer(Discoverer{
		Name:      "conditional",
		Describe:  "Domain and Missing profiles scoped to single-attribute equality conditions (extension)",
		DefaultOn: false,
		Discover:  DiscoverConditional,
		Encode:    encodeConditional,
		Decode:    decodeConditional,
		Drift:     driftConditional,
	})
}

// perColumn fans an independent per-column discovery over the engine worker
// pool; results are assembled in column order, keeping the output
// deterministic for any worker count. This per-column parallelism composes
// with Discover's per-class fan-out.
func perColumn(d *dataset.Dataset, opts Options, fn func(c *dataset.Column) []Profile) []Profile {
	cols := d.Columns()
	per := make([][]Profile, len(cols))
	engine.ParallelFor(opts.workers(), len(cols), func(i int) {
		per[i] = fn(cols[i])
	})
	var out []Profile
	for _, ps := range per {
		out = append(out, ps...)
	}
	return out
}

// discoverDomains learns one Domain profile per column (kind-appropriate:
// categorical value set, numeric range, or text pattern).
func discoverDomains(d *dataset.Dataset, opts Options) []Profile {
	return perColumn(d, opts, func(c *dataset.Column) []Profile {
		if p := discoverDomain(d, c); p != nil {
			return []Profile{p}
		}
		return nil
	})
}

// discoverMissing learns the observed NULL fraction of every column.
func discoverMissing(d *dataset.Dataset, opts Options) []Profile {
	return perColumn(d, opts, func(c *dataset.Column) []Profile {
		theta := float64(d.NullCount(c.Name))
		if d.NumRows() > 0 {
			theta /= float64(d.NumRows())
		}
		return []Profile{&Missing{Attr: c.Name, Theta: theta}}
	})
}

// discoverOutliers learns the observed k-sigma outlier fraction of every
// numeric column.
func discoverOutliers(d *dataset.Dataset, opts Options) []Profile {
	return perColumn(d, opts, func(c *dataset.Column) []Profile {
		if c.Kind != dataset.Numeric {
			return nil
		}
		p := &Outlier{Attr: c.Name, K: outlierK}
		p.Theta = p.OutlierFraction(d)
		return []Profile{p}
	})
}

// discoverDistributions learns decile-grid Distribution profiles for
// numeric columns: a full sort below the sampling threshold, the quantile
// sketch roll-up (with its deterministic rank-error bound) above it.
func discoverDistributions(d *dataset.Dataset, opts Options) []Profile {
	cap := opts.sampleCap()
	sketch := cap > 0 && d.NumRows() > cap
	return perColumn(d, opts, func(c *dataset.Column) []Profile {
		if c.Kind != dataset.Numeric {
			return nil
		}
		var p *Distribution
		if sketch {
			p = DiscoverDistributionSketch(d, c.Name)
		} else {
			p = DiscoverDistribution(d, c.Name)
		}
		if p != nil {
			return []Profile{p}
		}
		return nil
	})
}

// discoverFrequencies learns sampling-cadence profiles for numeric columns.
func discoverFrequencies(d *dataset.Dataset, opts Options) []Profile {
	return perColumn(d, opts, func(c *dataset.Column) []Profile {
		if c.Kind != dataset.Numeric {
			return nil
		}
		if p := DiscoverFrequency(d, c.Name); p != nil {
			return []Profile{p}
		}
		return nil
	})
}

// discoverIndep enumerates homogeneous Indep profiles: chi-squared for
// categorical pairs and Pearson for numeric pairs. The causal mixed-pair
// variant is its own class (discoverIndepCausal).
func discoverIndep(d *dataset.Dataset, opts Options) []Profile {
	cols := d.Columns()
	// Enumerate eligible pairs first, then fit the pairwise statistics in
	// parallel — each fit touches only its own pair of columns.
	type pair struct{ a, b *dataset.Column }
	var pairs []pair
	for i := 0; i < len(cols); i++ {
		for j := i + 1; j < len(cols); j++ {
			a, b := cols[i], cols[j]
			if (a.Kind == dataset.Categorical && b.Kind == dataset.Categorical) ||
				(a.Kind == dataset.Numeric && b.Kind == dataset.Numeric) {
				pairs = append(pairs, pair{a, b})
			}
		}
	}
	// Fit on the sample view when sampling is active. The chi-squared pairs
	// keep the Hoeffding bound template (it bounds the contingency cell
	// frequencies); the Pearson pairs get a per-profile CLT bound on r via
	// the Fisher-transform standard error (1 − r²)/√(m − 3).
	sd, bound := opts.sampleFit(d)
	out := make([]Profile, len(pairs))
	engine.ParallelFor(opts.workers(), len(pairs), func(i int) {
		a, b := pairs[i].a, pairs[i].b
		if a.Kind == dataset.Categorical {
			p := &IndepChi{AttrA: a.Name, AttrB: b.Name, Fit: bound}
			chi2, _ := p.Statistic(sd)
			p.Alpha = chi2
			out[i] = p
		} else {
			p := &IndepPearson{AttrA: a.Name, AttrB: b.Name, Fit: bound}
			r, _ := p.Statistic(sd)
			p.Alpha = math.Abs(r)
			if bound != nil && bound.SampleRows > 3 {
				fb := *bound
				fb.Method = "clt"
				fb.Epsilon = stats.CLTEpsilon(fb.SampleRows-3, 1-r*r, 1-fb.Confidence)
				p.Fit = &fb
			}
			out[i] = p
		}
	})
	return out
}

// discoverIndepCausal enumerates causal Indep profiles for mixed
// categorical/numeric attribute pairs (neither side text).
func discoverIndepCausal(d *dataset.Dataset, opts Options) []Profile {
	cols := d.Columns()
	type pair struct{ a, b *dataset.Column }
	var pairs []pair
	for i := 0; i < len(cols); i++ {
		for j := i + 1; j < len(cols); j++ {
			a, b := cols[i], cols[j]
			if a.Kind == dataset.Text || b.Kind == dataset.Text || a.Kind == b.Kind {
				continue
			}
			pairs = append(pairs, pair{a, b})
		}
	}
	sd, bound := opts.sampleFit(d)
	out := make([]Profile, len(pairs))
	engine.ParallelFor(opts.workers(), len(pairs), func(i int) {
		p := &IndepCausal{AttrA: pairs[i].a.Name, AttrB: pairs[i].b.Name, Fit: bound}
		p.Alpha = causal.PairCoefficient(sd, p.AttrA, p.AttrB)
		out[i] = p
	})
	return out
}
