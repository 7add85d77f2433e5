// Canonical JSON codecs for learned text patterns. Profile artifacts
// (internal/artifact) persist text Domain profiles, so a Pattern must
// round-trip through a stable, deterministic wire form:
// the same learned pattern always encodes to the same bytes, regardless of
// map iteration order, and decoding reconstructs a pattern that Equal()s
// the original.
package pattern

import (
	"encoding/json"
	"fmt"
	"sort"
)

// runJSON is the wire form of one Run. The literal rune travels as a string
// so the JSON stays readable; empty means "no literal".
type runJSON struct {
	Class   int    `json:"class"`
	Min     int    `json:"min"`
	Max     int    `json:"max"`
	Literal string `json:"literal,omitempty"`
}

// patternJSON is the wire form of a Pattern. The Classes set is flattened
// into a sorted slice — the one map in the struct must never leak iteration
// order into artifact bytes.
type patternJSON struct {
	Structured bool      `json:"structured"`
	MinLen     int       `json:"min_len"`
	MaxLen     int       `json:"max_len"`
	Runs       []runJSON `json:"runs,omitempty"`
	Classes    []int     `json:"classes,omitempty"`
}

// MarshalJSON implements json.Marshaler with a canonical encoding.
func (p *Pattern) MarshalJSON() ([]byte, error) {
	w := patternJSON{Structured: p.Structured, MinLen: p.MinLen, MaxLen: p.MaxLen}
	for _, r := range p.Runs {
		rj := runJSON{Class: int(r.Class), Min: r.Min, Max: r.Max}
		if r.Literal != 0 {
			rj.Literal = string(r.Literal)
		}
		w.Runs = append(w.Runs, rj)
	}
	for c := range p.Classes {
		w.Classes = append(w.Classes, int(c))
	}
	sort.Ints(w.Classes)
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler.
func (p *Pattern) UnmarshalJSON(data []byte) error {
	var w patternJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*p = Pattern{Structured: w.Structured, MinLen: w.MinLen, MaxLen: w.MaxLen,
		Classes: make(map[Class]bool)}
	for _, rj := range w.Runs {
		r := Run{Class: Class(rj.Class), Min: rj.Min, Max: rj.Max}
		if rj.Literal != "" {
			runes := []rune(rj.Literal)
			if len(runes) != 1 {
				return fmt.Errorf("pattern: literal %q is not a single rune", rj.Literal)
			}
			r.Literal = runes[0]
		}
		p.Runs = append(p.Runs, r)
	}
	for _, c := range w.Classes {
		p.Classes[Class(c)] = true
	}
	return nil
}
