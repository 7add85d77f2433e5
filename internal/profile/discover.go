package profile

import (
	"runtime"
	"sort"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/pattern"
)

// Options configures profile discovery.
type Options struct {
	// OutlierK is the standard-deviation multiplier of the outlier detector
	// (the paper's example uses 1.5). Zero means 1.5.
	OutlierK float64
	// MaxCategoricalDomain bounds the distinct-value count for which
	// categorical Domain and Selectivity profiles are enumerated. Zero
	// means 20.
	MaxCategoricalDomain int
	// MaxSelectivityClauses is the largest conjunction size for Selectivity
	// predicates (0 disables Selectivity discovery entirely; the default
	// used by DefaultOptions is 2).
	MaxSelectivityClauses int
	// MaxSelectivityProfiles caps the number of enumerated Selectivity
	// profiles. Zero means 1000.
	MaxSelectivityProfiles int
	// Classes selects profile classes by registry name (see Discoverers):
	// true includes a class, false excludes it, and names absent from the
	// map fall back to each class's registered default. This is the one
	// class-selection surface; the CLI's -profiles flag and every scenario
	// translate into it.
	Classes map[string]bool
	// TextAlternations, when above 1, learns text Domain profiles as
	// alternations of up to that many structured formats instead of a
	// single pattern — handling attributes that legitimately mix formats.
	TextAlternations int
	// Workers bounds the goroutines fanning independent discovery work
	// (profile classes, per-column profiles, independence pairs,
	// selectivity estimates) out on the engine worker pool. Zero means
	// GOMAXPROCS; one forces sequential discovery. The discovered profile
	// set is identical for any value.
	Workers int
	// Sample configures sampled fitting of the expensive profile classes
	// (selectivity, indep, indep-causal, fd, unique, inclusion); see
	// SampleOptions. The zero value fits every profile exactly.
	Sample SampleOptions
}

// DefaultOptions returns the discovery configuration used in the paper's
// case studies: 1.5σ outliers, selectivity conjunctions up to size 2.
func DefaultOptions() Options {
	return Options{
		OutlierK:               1.5,
		MaxCategoricalDomain:   20,
		MaxSelectivityClauses:  2,
		MaxSelectivityProfiles: 1000,
	}
}

func (o *Options) fill() {
	if o.OutlierK == 0 {
		o.OutlierK = 1.5
	}
	if o.MaxCategoricalDomain == 0 {
		o.MaxCategoricalDomain = 20
	}
	if o.MaxSelectivityProfiles == 0 {
		o.MaxSelectivityProfiles = 1000
	}
}

func (o *Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// Discover learns the exhaustive set of minimal profiles that d satisfies,
// per the discovery column of Figure 1. It iterates the registered profile
// classes (see Discoverers) that the options enable, fanning the classes
// out on the engine worker pool — each class may additionally parallelize
// internally (per column, per pair) with the same worker budget. The result
// is deterministic for any worker count: sorted by profile Key.
func Discover(d *dataset.Dataset, opts Options) []Profile {
	opts.fill()
	enabled := opts.classSet()
	var active []Discoverer
	for _, c := range Discoverers() {
		if enabled[c.Name] {
			active = append(active, c)
		}
	}
	warmChunks(d, opts)
	perClass := make([][]Profile, len(active))
	engine.ParallelFor(opts.workers(), len(active), func(i int) {
		perClass[i] = active[i].Discover(d, opts)
	})
	var out []Profile
	for _, ps := range perClass {
		out = append(out, ps...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// warmChunks precomputes every column's per-chunk statistics roll-ups and
// digest partials on the engine worker pool before the per-class discoverers
// run. The tasks are (column, chunk) pairs rather than whole columns, so the
// fan-out stays balanced even for datasets with few, large columns; the
// per-chunk caches are atomic, so concurrent warming is safe and later reads
// by any discoverer hit warm caches. When sampled fitting is active the same
// fan-out also extracts each chunk's reservoir and assembles the sample view.
// After a mutation this re-computes only the dirty chunks — the unchanged
// chunks' cached partials and reservoirs are reused — which is what makes
// re-profiling after a single-attribute intervention scale with the number
// of dirty chunks, not the dataset size.
func warmChunks(d *dataset.Dataset, opts Options) {
	workers := opts.workers()
	cols := d.Columns()
	cap := opts.sampleCap()
	sampling := cap > 0 && d.NumRows() > cap
	var quotas []int
	if sampling {
		quotas = d.SampleQuotas(cap)
	}
	type task struct {
		col   *dataset.Column
		chunk int
	}
	var tasks []task
	for _, c := range cols {
		for k := 0; k < c.NumChunks(); k++ {
			tasks = append(tasks, task{c, k})
		}
	}
	engine.ParallelFor(workers, len(tasks), func(i int) {
		tasks[i].col.WarmChunk(tasks[i].chunk)
		if sampling && quotas[tasks[i].chunk] > 0 {
			tasks[i].col.WarmChunkSample(tasks[i].chunk, quotas[tasks[i].chunk], opts.Sample.Seed)
		}
	})
	// Roll the warmed partials up into the column-level caches so the
	// discoverers' Rollup()/Digest() calls are pure merges. The roll-up is
	// the only cached statistics surface and never materializes row-length
	// vectors.
	engine.ParallelFor(workers, len(cols), func(i int) {
		cols[i].Rollup()
		cols[i].Digest()
	})
	if sampling {
		d.SampleView(cap, opts.Sample.Seed)
	}
}

// discoverDomain learns the Domain profile appropriate for the column kind.
func discoverDomain(d *dataset.Dataset, c *dataset.Column, opts Options) Profile {
	switch c.Kind {
	case dataset.Numeric:
		// The bounds come straight off the statistics roll-up: O(#chunks)
		// merged extrema, no row-length vector.
		r := d.Rollup(c.Name)
		if r == nil || r.Moments.Count == 0 {
			return nil
		}
		return &DomainNumeric{Attr: c.Name, Lo: r.Min(), Hi: r.Max()}
	case dataset.Categorical:
		distinct := d.DistinctStrings(c.Name)
		if len(distinct) == 0 || len(distinct) > opts.MaxCategoricalDomain {
			return nil
		}
		values := make(map[string]bool, len(distinct))
		for _, v := range distinct {
			values[v] = true
		}
		return &DomainCategorical{Attr: c.Name, Values: values}
	case dataset.Text:
		vals := d.StringValues(c.Name)
		if len(vals) == 0 {
			return nil
		}
		if opts.TextAlternations > 1 {
			return &DomainTextMulti{Attr: c.Name, Alt: pattern.LearnAlternation(vals, opts.TextAlternations)}
		}
		return &DomainText{Attr: c.Name, Pattern: pattern.Learn(vals)}
	default:
		return nil
	}
}

// discoverSelectivity enumerates Selectivity profiles over equality clauses
// on small-domain categorical attributes: all single clauses, plus all
// two-clause conjunctions across distinct attributes when configured.
func discoverSelectivity(d *dataset.Dataset, opts Options) []Profile {
	if opts.MaxSelectivityClauses <= 0 {
		return nil
	}
	type attrValue struct {
		attr string
		val  string
	}
	var singles []attrValue
	for _, c := range d.Columns() {
		if c.Kind != dataset.Categorical {
			continue
		}
		distinct := d.DistinctStrings(c.Name)
		if len(distinct) == 0 || len(distinct) > opts.MaxCategoricalDomain {
			continue
		}
		for _, v := range distinct {
			singles = append(singles, attrValue{c.Name, v})
		}
	}
	// Enumerate the predicates first (respecting the cap in deterministic
	// order), then estimate their selectivities in parallel: each estimate
	// is an independent column scan.
	var preds []dataset.Predicate
	add := func(pred dataset.Predicate) bool {
		if len(preds) >= opts.MaxSelectivityProfiles {
			return false
		}
		preds = append(preds, pred)
		return true
	}
	full := true
	for _, s := range singles {
		if !add(dataset.And(dataset.EqStr(s.attr, s.val))) {
			full = false
			break
		}
	}
	if full && opts.MaxSelectivityClauses >= 2 {
	pairs:
		for i := 0; i < len(singles); i++ {
			for j := i + 1; j < len(singles); j++ {
				if singles[i].attr == singles[j].attr {
					continue
				}
				pred := dataset.And(
					dataset.EqStr(singles[i].attr, singles[i].val),
					dataset.EqStr(singles[j].attr, singles[j].val),
				)
				if !add(pred) {
					break pairs
				}
			}
		}
	}
	// Fit on the sample view when sampling is active: each estimated Theta
	// is a mean of [0,1] indicators, so the Hoeffding bound applies as-is.
	sd, bound := opts.sampleFit(d)
	out := make([]Profile, len(preds))
	engine.ParallelFor(opts.workers(), len(preds), func(i int) {
		out[i] = &Selectivity{Pred: preds[i], Theta: preds[i].Selectivity(sd), Fit: bound}
	})
	return out
}

// DiscriminativeFrom filters a pinned profile set — typically decoded from
// a versioned baseline artifact (internal/artifact) — down to the profiles
// the failing dataset violates beyond eps. It is the artifact-backed
// counterpart of Discriminative: instead of re-discovering the passing
// dataset, the caller supplies what "normal" was when the baseline was
// pinned, so an explanation can cite the exact artifact a violated profile
// came from. Input order is preserved.
func DiscriminativeFrom(pinned []Profile, fail *dataset.Dataset, eps float64) []Profile {
	var out []Profile
	for _, p := range pinned {
		if p.Violation(fail) > eps {
			out = append(out, p)
		}
	}
	return out
}

// Discriminative returns the profiles discovered on pass whose violation on
// fail exceeds eps — the discriminative PVT candidates of Definition 10
// (X_V(D_pass, X_P) = 0 by construction, X_V(D_fail, X_P) > 0 by the filter).
// Profiles are returned in discovery (Key) order.
func Discriminative(pass, fail *dataset.Dataset, opts Options, eps float64) []Profile {
	// The two discoveries are independent datasets, so they run concurrently
	// (each additionally fans out per-class and per-column inside Discover).
	var passProfiles, failProfiles []Profile
	ds := [2]*dataset.Dataset{pass, fail}
	res := [2][]Profile{}
	w := 1
	if opts.Workers == 0 || opts.Workers > 1 {
		w = 2
	}
	engine.ParallelFor(w, 2, func(i int) {
		res[i] = Discover(ds[i], opts)
	})
	passProfiles, failProfiles = res[0], res[1]
	failByKey := make(map[string]Profile, len(failProfiles))
	for _, p := range failProfiles {
		failByKey[p.Key()] = p
	}
	var out []Profile
	for _, p := range passProfiles {
		// Fast path of Algorithm 1 lines 3-4: identical parameter values on
		// both datasets cannot be discriminative.
		if fp, ok := failByKey[p.Key()]; ok && p.SameParams(fp) {
			continue
		}
		if p.Violation(fail) > eps {
			out = append(out, p)
		}
	}
	return out
}
