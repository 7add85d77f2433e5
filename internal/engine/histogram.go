package engine

import (
	"fmt"
	"strings"
	"time"
)

// histBounds are the upper edges of the latency buckets; the final bucket
// is unbounded. Exponential edges cover in-process scorers (microseconds)
// through external subprocess pipelines (seconds).
var histBounds = [...]time.Duration{
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
}

// Histogram is a fixed-bucket latency histogram of oracle calls. The zero
// value is empty and ready to use.
type Histogram struct {
	// Count is the number of observed calls.
	Count int64

	// buckets[i] counts calls with latency ≤ histBounds[i]; the last
	// bucket counts everything slower.
	buckets [len(histBounds) + 1]int64
	// sum aggregates all observations; max is the slowest call.
	sum time.Duration
	max time.Duration
}

func (h *Histogram) observe(d time.Duration) {
	i := 0
	for i < len(histBounds) && d > histBounds[i] {
		i++
	}
	h.buckets[i]++
	h.Count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Mean returns the average observed latency (0 when empty).
func (h Histogram) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.Count)
}

// String renders the non-empty buckets compactly, e.g.
// "≤1ms:40 ≤10ms:3 (mean 420µs, max 8ms)".
func (h Histogram) String() string {
	if h.Count == 0 {
		return "no oracle calls"
	}
	var parts []string
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		if i < len(histBounds) {
			parts = append(parts, fmt.Sprintf("≤%v:%d", histBounds[i], n))
		} else {
			parts = append(parts, fmt.Sprintf(">%v:%d", histBounds[len(histBounds)-1], n))
		}
	}
	return fmt.Sprintf("%s (mean %v, max %v)",
		strings.Join(parts, " "), h.Mean().Round(time.Microsecond), h.max.Round(time.Microsecond))
}
