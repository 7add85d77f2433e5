package core

import (
	"repro/internal/dataset"
	"repro/internal/transform"
)

// coverageCache memoizes the coverage term of the benefit score within one
// search. The greedy loop re-ranks every remaining candidate PVT after each
// accepted intervention, but an intervention only reshapes the current
// dataset when accepted — so across rounds most (PVT, dataset) pairs repeat
// and Coverage, an O(rows) scan, is recomputed for nothing.
//
// The cache holds one slot per PVT index of the search's candidate slice:
// the content fingerprint of the dataset the slot was filled on, and the
// PVT's largest coverage there. GRD reaches a slot through its candidate
// index and the decision tree through its conjunction indices. A search
// ranks against one current dataset at a time, so remembering the last
// dataset per PVT keeps every repeat; a changed dataset changes the
// fingerprint (cheap under copy-on-write: only touched columns re-hash)
// and refills the slot, so the cache is exactly as correct as
// recomputation.
//
// A cache is created per search and used from the single search goroutine;
// it is not safe for concurrent use.
type coverageCache struct {
	slots        []covSlot
	hits, misses int
}

// covSlot is one PVT's memoized coverage term; filled is false until the
// first computation.
type covSlot struct {
	fp     uint64
	cov    float64
	filled bool
}

// newCoverageCache returns a cache for a search over n PVTs.
func newCoverageCache(n int) *coverageCache {
	return &coverageCache{slots: make([]covSlot, n)}
}

// maxCoverage returns the largest coverage among the candidate
// transformations of PVT i, p, on d — the coverage term of Benefit —
// served from slot i when it was filled on the same content.
func (c *coverageCache) maxCoverage(i int, p *PVT, d *dataset.Dataset) float64 {
	fp := d.Fingerprint()
	s := &c.slots[i]
	if s.filled && s.fp == fp {
		c.hits++
		return s.cov
	}
	c.misses++
	*s = covSlot{fp: fp, cov: maxCoverage(p.Transforms, d), filled: true}
	return s.cov
}

// maxCoverage is the uncached coverage term of Benefit.
func maxCoverage(ts []transform.Transformation, d *dataset.Dataset) float64 {
	cov := 0.0
	for _, t := range ts {
		if c := t.Coverage(d); c > cov {
			cov = c
		}
	}
	return cov
}
