package pattern

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// Tokenize-based reference implementations of Learn and Matches: every
// string is split into a []Run before it is compared. The fuzz target and
// the randomized test below pin the scanning code to them.

// referenceTokenize splits s into maximal same-class runs.
func referenceTokenize(s string) []Run {
	var runs []Run
	var cur *Run
	for _, r := range s {
		c := classOf(r)
		if cur != nil && cur.Class == c {
			cur.Min++
			cur.Max++
			if cur.Literal != r {
				cur.Literal = 0
			}
			continue
		}
		runs = append(runs, Run{Class: c, Min: 1, Max: 1, Literal: r})
		cur = &runs[len(runs)-1]
	}
	return runs
}

// referenceLearn is Learn over tokenized examples.
func referenceLearn(examples []string) *Pattern {
	p := &Pattern{Classes: make(map[Class]bool)}
	if len(examples) == 0 {
		p.Structured = true
		return p
	}
	p.MinLen = len([]rune(examples[0]))
	p.MaxLen = p.MinLen
	var shared []Run
	structured := true
	for i, ex := range examples {
		n := len([]rune(ex))
		if n < p.MinLen {
			p.MinLen = n
		}
		if n > p.MaxLen {
			p.MaxLen = n
		}
		runs := referenceTokenize(ex)
		for _, r := range runs {
			p.Classes[r.Class] = true
		}
		if i == 0 {
			shared = runs
			continue
		}
		if !structured {
			continue
		}
		if len(runs) != len(shared) {
			structured = false
			continue
		}
		for j := range runs {
			if runs[j].Class != shared[j].Class {
				structured = false
				break
			}
			if runs[j].Min < shared[j].Min {
				shared[j].Min = runs[j].Min
			}
			if runs[j].Max > shared[j].Max {
				shared[j].Max = runs[j].Max
			}
			if runs[j].Literal != shared[j].Literal {
				shared[j].Literal = 0
			}
		}
	}
	p.Structured = structured
	if structured {
		p.Runs = shared
	}
	return p
}

// referenceMatches is Matches over the tokenized string.
func referenceMatches(p *Pattern, s string) bool {
	n := len([]rune(s))
	if n < p.MinLen || n > p.MaxLen {
		return false
	}
	if !p.Structured {
		for _, r := range s {
			if !p.Classes[classOf(r)] {
				return false
			}
		}
		return true
	}
	runs := referenceTokenize(s)
	if len(runs) != len(p.Runs) {
		return false
	}
	for i, r := range runs {
		want := p.Runs[i]
		if r.Class != want.Class || r.Min < want.Min || r.Max > want.Max {
			return false
		}
		if want.Literal != 0 && r.Literal != want.Literal {
			return false
		}
	}
	return true
}

// checkAgainstReference fails t unless Learn and Matches agree with the
// reference on the examples and probes.
func checkAgainstReference(t *testing.T, examples, probes []string) {
	t.Helper()
	got, want := Learn(examples), referenceLearn(examples)
	if !got.Equal(want) || !want.Equal(got) || got.String() != want.String() || !reflect.DeepEqual(got, want) {
		t.Fatalf("Learn(%q) = %s %+v, reference %s %+v", examples, got, got, want, want)
	}
	for _, s := range probes {
		if g, w := want.Matches(s), referenceMatches(want, s); g != w {
			t.Fatalf("pattern %s learned from %q: Matches(%q) = %v, reference %v", want, examples, s, g, w)
		}
	}
}

// FuzzPatternMatchesReference checks Learn and Matches against the
// tokenize-based reference. The examples are the newline-separated fields
// of the first input; the probes are every example, the second input, and
// the two spliced together.
func FuzzPatternMatchesReference(f *testing.F) {
	f.Add("AB-123\nXY-9\nQQ-77", "ZZ-55")
	f.Add("01004\n01009\n94107", "1234a")
	f.Add("", "")
	f.Add("\n\n", "x")
	f.Add("日本語\n日本", "日本語語")
	f.Add("hello world\n42\nMixed-Case", "ok 12")
	f.Add("\xff\xfe-1\n\xff-22", "\xff\xff-333")
	f.Add("�-1\n\xff-1", "\x00\x00")
	f.Add("a b\n٣٣-X", "Éß€")
	f.Fuzz(func(t *testing.T, joined, probe string) {
		examples := strings.Split(joined, "\n")
		probes := append(append([]string{}, examples...), probe, examples[0]+probe)
		checkAgainstReference(t, examples, probes)
		checkAgainstReference(t, nil, probes)
	})
}

// TestLearnMatchesReferenceRandom runs Learn and Matches against the
// reference on generated example sets. Most share a run structure with
// varying run lengths and literals; some break it. The runes include
// multibyte letters, digits and spaces, U+FFFD, NUL and invalid UTF-8.
func TestLearnMatchesReferenceRandom(t *testing.T) {
	alphabet := [][]string{
		{"A", "Z", "É"},                 // Upper
		{"a", "q", "ß"},                 // Lower
		{"0", "7", "٣"},                 // Digit
		{" ", "\t", "\u00a0"},           // Space
		{"-", "€", "�", "\xff", "\x00"}, // Punct and undecodable bytes
	}
	rng := rand.New(rand.NewSource(18))
	gen := func(shape []Class) string {
		var b strings.Builder
		for _, c := range shape {
			runes := alphabet[c]
			lit := runes[rng.Intn(len(runes))]
			for n := 1 + rng.Intn(3); n > 0; n-- {
				if rng.Intn(4) == 0 {
					b.WriteString(runes[rng.Intn(len(runes))])
				} else {
					b.WriteString(lit)
				}
			}
		}
		return b.String()
	}
	randomShape := func() []Class {
		shape := make([]Class, rng.Intn(5))
		for i := range shape {
			shape[i] = Class(rng.Intn(5))
		}
		return shape
	}
	for trial := 0; trial < 20000; trial++ {
		shape := randomShape()
		examples := make([]string, 1+rng.Intn(5))
		for i := range examples {
			if rng.Intn(8) == 0 {
				examples[i] = gen(randomShape())
			} else {
				examples[i] = gen(shape)
			}
		}
		probes := []string{gen(shape), gen(randomShape()), examples[0] + examples[len(examples)-1]}
		checkAgainstReference(t, examples, probes)
	}
}
