// Package pattern implements lightweight regular-expression discovery for
// text attributes, standing in for the rexpy library the paper uses for
// Figure 1 row 3 (text Domain profiles).
//
// Learn generalizes a set of example strings into a Pattern: a sequence of
// character-class runs with length bounds (e.g. [A-Z][a-z]{2,8}-[0-9]{3,3}).
// When the examples do not share a common run structure, the pattern degrades
// gracefully to per-class alphabet plus global length bounds, which still
// discriminates datasets with different formats. Conform minimally edits a
// string so that it matches the pattern — the transformation function for
// text Domain PVTs.
package pattern

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Class is a character class used in pattern runs.
type Class int

const (
	// Upper is the class of uppercase letters.
	Upper Class = iota
	// Lower is the class of lowercase letters.
	Lower
	// Digit is the class of decimal digits.
	Digit
	// Space is the class of whitespace runes.
	Space
	// Punct is the class of all remaining runes (punctuation, symbols).
	Punct
)

// classOf buckets a rune into its character class.
func classOf(r rune) Class {
	switch {
	case unicode.IsUpper(r):
		return Upper
	case unicode.IsLower(r):
		return Lower
	case unicode.IsDigit(r):
		return Digit
	case unicode.IsSpace(r):
		return Space
	default:
		return Punct
	}
}

// regex spelling and canonical representative of each class.
func (c Class) regex() string {
	switch c {
	case Upper:
		return "[A-Z]"
	case Lower:
		return "[a-z]"
	case Digit:
		return "[0-9]"
	case Space:
		return `\s`
	default:
		return `\p{P}`
	}
}

// canonical returns a representative rune used when Conform must synthesize
// characters of this class.
func (c Class) canonical() rune {
	switch c {
	case Upper:
		return 'A'
	case Lower:
		return 'a'
	case Digit:
		return '0'
	case Space:
		return ' '
	default:
		return '-'
	}
}

// Run is one maximal same-class segment with inclusive length bounds.
// If Literal is non-zero every rune in the run is that exact rune
// (learned when all examples agree, e.g. a fixed '-' separator).
type Run struct {
	Class   Class
	Min     int
	Max     int
	Literal rune
}

// Pattern is a learned text-format profile.
type Pattern struct {
	// Runs is the shared run structure; nil when Structured is false.
	Runs []Run
	// Structured reports whether all examples shared one run structure.
	Structured bool
	// MinLen and MaxLen bound the total string length (always learned).
	MinLen, MaxLen int
	// Classes holds the distinct classes observed anywhere in the examples;
	// used by the unstructured fallback.
	Classes map[Class]bool
}

// classMask is a set of Classes, one bit per class.
type classMask uint8

func (m classMask) has(c Class) bool { return m&(1<<c) != 0 }

// maskOf returns the classes of a Classes map as a mask.
func maskOf(classes map[Class]bool) classMask {
	var m classMask
	for c := Upper; c <= Punct; c++ {
		if classes[c] {
			m |= 1 << c
		}
	}
	return m
}

// scanRun returns the maximal same-class run of s that starts at byte
// offset i, and the offset just past it. Min and Max both hold the run's
// rune count; Literal is its rune when all its runes are equal, else 0.
func scanRun(s string, i int) (Run, int) {
	r, w := utf8.DecodeRuneInString(s[i:])
	run := Run{Class: classOf(r), Min: 1, Max: 1, Literal: r}
	for i += w; i < len(s); i += w {
		r, w = utf8.DecodeRuneInString(s[i:])
		if classOf(r) != run.Class {
			break
		}
		run.Min++
		run.Max++
		if run.Literal != r {
			run.Literal = 0
		}
	}
	return run, i
}

// tokenize splits s into maximal same-class runs.
func tokenize(s string) []Run {
	var runs []Run
	for i := 0; i < len(s); {
		var r Run
		r, i = scanRun(s, i)
		runs = append(runs, r)
	}
	return runs
}

// Learn induces a Pattern from non-empty example strings. Empty example
// slices yield a degenerate pattern that matches only the empty string.
// Only the first example is tokenized: every later one is scanned run by
// run against that shared structure, so learning allocates nothing per
// example.
func Learn(examples []string) *Pattern {
	p := &Pattern{Classes: make(map[Class]bool)}
	if len(examples) == 0 {
		p.Structured = true
		return p
	}
	shared := tokenize(examples[0])
	p.MinLen = utf8.RuneCountInString(examples[0])
	p.MaxLen = p.MinLen
	var seen classMask
	for _, r := range shared {
		seen |= 1 << r.Class
	}
	structured := true
	for _, ex := range examples[1:] {
		n := utf8.RuneCountInString(ex)
		if n < p.MinLen {
			p.MinLen = n
		}
		if n > p.MaxLen {
			p.MaxLen = n
		}
		j := 0
		for i := 0; i < len(ex); j++ {
			var r Run
			r, i = scanRun(ex, i)
			seen |= 1 << r.Class
			if !structured {
				continue
			}
			// A mismatch ends the shared structure for good, so the runs
			// merged before it no longer matter.
			if j >= len(shared) || r.Class != shared[j].Class {
				structured = false
				continue
			}
			sh := &shared[j]
			if r.Min < sh.Min {
				sh.Min = r.Min
			}
			if r.Max > sh.Max {
				sh.Max = r.Max
			}
			if r.Literal != sh.Literal {
				sh.Literal = 0
			}
		}
		if j != len(shared) {
			structured = false
		}
	}
	for c := Upper; c <= Punct; c++ {
		if seen.has(c) {
			p.Classes[c] = true
		}
	}
	p.Structured = structured
	if structured {
		p.Runs = shared
	}
	return p
}

// Matches reports whether s conforms to the pattern. It scans s run by run
// without tokenizing it.
func (p *Pattern) Matches(s string) bool {
	n := utf8.RuneCountInString(s)
	if n < p.MinLen || n > p.MaxLen {
		return false
	}
	if !p.Structured {
		// Fallback: every rune must belong to an observed class.
		allowed := maskOf(p.Classes)
		for _, r := range s {
			if !allowed.has(classOf(r)) {
				return false
			}
		}
		return true
	}
	j := 0
	for i := 0; i < len(s); j++ {
		if j >= len(p.Runs) {
			return false
		}
		var r Run
		r, i = scanRun(s, i)
		want := p.Runs[j]
		if r.Class != want.Class || r.Min < want.Min || r.Max > want.Max {
			return false
		}
		if want.Literal != 0 && r.Literal != want.Literal {
			return false
		}
	}
	return j == len(p.Runs)
}

// Conform minimally edits s so that it matches the pattern: characters are
// reused where their class already agrees, substituted by the class canonical
// otherwise, and runs are padded or truncated into their length bounds, then
// into the pattern's total length bounds. For unstructured patterns only the
// length bounds and alphabet are enforced. A string that already matches is
// returned unchanged.
func (p *Pattern) Conform(s string) string {
	if p.Matches(s) {
		return s
	}
	src := []rune(s)
	if !p.Structured {
		out := make([]rune, 0, len(src))
		for _, r := range src {
			if p.Classes[classOf(r)] {
				out = append(out, r)
			} else {
				out = append(out, fallbackRune(p.Classes))
			}
		}
		for len(out) < p.MinLen {
			out = append(out, fallbackRune(p.Classes))
		}
		if len(out) > p.MaxLen {
			out = out[:p.MaxLen]
		}
		return string(out)
	}
	chunks := make([][]rune, len(p.Runs))
	total, pos := 0, 0
	for i, run := range p.Runs {
		// Greedily consume matching source runes up to Max.
		var chunk []rune
		for pos < len(src) && len(chunk) < run.Max && classOf(src[pos]) == run.Class {
			if run.Literal != 0 && src[pos] != run.Literal {
				chunk = append(chunk, run.Literal)
			} else {
				chunk = append(chunk, src[pos])
			}
			pos++
		}
		for len(chunk) < run.Min {
			chunk = append(chunk, run.fill())
		}
		chunks[i] = chunk
		total += len(chunk)
	}
	// Every run is within [Min, Max], but the total may be outside
	// [MinLen, MaxLen]. Lengthening runs below their Max, or shortening runs
	// above their Min, always reaches the bounds: the run lengths of any
	// training example satisfy both.
	for i, run := range p.Runs {
		for total < p.MinLen && len(chunks[i]) < run.Max {
			chunks[i] = append(chunks[i], run.fill())
			total++
		}
		for total > p.MaxLen && len(chunks[i]) > run.Min {
			chunks[i] = chunks[i][:len(chunks[i])-1]
			total--
		}
	}
	out := make([]rune, 0, total)
	for _, chunk := range chunks {
		out = append(out, chunk...)
	}
	return string(out)
}

// fill is the rune a run is padded with: its literal, or its class's
// canonical rune.
func (r Run) fill() rune {
	if r.Literal != 0 {
		return r.Literal
	}
	return r.Class.canonical()
}

// fallbackRune picks a deterministic representative from the observed classes.
func fallbackRune(classes map[Class]bool) rune {
	for _, c := range []Class{Lower, Digit, Upper, Space, Punct} {
		if classes[c] {
			return c.canonical()
		}
	}
	return 'a'
}

// String renders the pattern regex-style, e.g. `[0-9]{5,5}` or
// `[A-Z]{1,1}[a-z]{2,8}`. Unstructured patterns render as a class union
// with a length bound.
func (p *Pattern) String() string {
	var b strings.Builder
	if p.Structured {
		for _, r := range p.Runs {
			if r.Literal != 0 {
				fmt.Fprintf(&b, "%q{%d,%d}", string(r.Literal), r.Min, r.Max)
			} else {
				fmt.Fprintf(&b, "%s{%d,%d}", r.Class.regex(), r.Min, r.Max)
			}
		}
		return b.String()
	}
	first := true
	b.WriteString("[")
	for _, c := range []Class{Upper, Lower, Digit, Space, Punct} {
		if p.Classes[c] {
			if !first {
				b.WriteString("|")
			}
			b.WriteString(c.regex())
			first = false
		}
	}
	fmt.Fprintf(&b, "]{%d,%d}", p.MinLen, p.MaxLen)
	return b.String()
}

// Equal reports whether two patterns describe the same format.
func (p *Pattern) Equal(q *Pattern) bool {
	if p.Structured != q.Structured || p.MinLen != q.MinLen || p.MaxLen != q.MaxLen {
		return false
	}
	if p.Structured {
		if len(p.Runs) != len(q.Runs) {
			return false
		}
		for i := range p.Runs {
			if p.Runs[i] != q.Runs[i] {
				return false
			}
		}
		return true
	}
	if len(p.Classes) != len(q.Classes) {
		return false
	}
	for c := range p.Classes {
		if !q.Classes[c] {
			return false
		}
	}
	return true
}
