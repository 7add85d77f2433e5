package pattern

import "testing"

// FuzzLearnConform asserts the pattern learner's core contract on arbitrary
// input: Learn never panics, the pattern matches its training strings, and
// Conform always produces a matching string.
func FuzzLearnConform(f *testing.F) {
	f.Add("01004", "abc-12", "01004abc-12")
	f.Add("", "x", "x")
	f.Add("日本語", "mixed 日本 text", "日本語mixed 日本 text")
	f.Add("(555) 123", "555123", "(555) 123555123")
	// Each run within its bounds, the total outside them.
	f.Add("0yy", "00y", "")
	f.Add("0yy", "00y", "00yy")
	f.Fuzz(func(t *testing.T, a, b, probe string) {
		p := Learn([]string{a, b})
		if !p.Matches(a) || !p.Matches(b) {
			t.Fatalf("pattern %s does not match its training strings %q, %q", p, a, b)
		}
		if got := p.Conform(probe); !p.Matches(got) {
			t.Fatalf("Conform(%q) = %q does not match %s", probe, got, p)
		}
	})
}
