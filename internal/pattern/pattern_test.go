package pattern

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLearnStructuredZipCodes(t *testing.T) {
	p := Learn([]string{"01004", "01009", "01101", "94107"})
	if !p.Structured {
		t.Fatal("zip codes should learn a structured pattern")
	}
	if len(p.Runs) != 1 || p.Runs[0].Class != Digit || p.Runs[0].Min != 5 || p.Runs[0].Max != 5 {
		t.Errorf("runs = %+v", p.Runs)
	}
	if !p.Matches("12345") {
		t.Error("should match 5-digit string")
	}
	for _, bad := range []string{"1234", "123456", "1234a", "abcde"} {
		if p.Matches(bad) {
			t.Errorf("should reject %q", bad)
		}
	}
}

func TestLearnMixedRuns(t *testing.T) {
	p := Learn([]string{"AB-123", "XY-9", "QQ-77"})
	if !p.Structured {
		t.Fatal("plates should learn structured pattern")
	}
	if len(p.Runs) != 3 {
		t.Fatalf("runs = %+v", p.Runs)
	}
	if p.Runs[1].Literal != '-' {
		t.Error("separator literal should be learned")
	}
	if !p.Matches("ZZ-55") || p.Matches("Z-55") || p.Matches("ZZ+55") {
		t.Error("matching wrong")
	}
	if p.Runs[2].Min != 1 || p.Runs[2].Max != 3 {
		t.Errorf("digit run bounds = %d..%d, want 1..3", p.Runs[2].Min, p.Runs[2].Max)
	}
}

func TestLearnUnstructuredFallback(t *testing.T) {
	p := Learn([]string{"hello world", "42", "Mixed-Case"})
	if p.Structured {
		t.Fatal("heterogeneous examples should be unstructured")
	}
	if !p.Matches("ok 12") {
		t.Error("fallback should match same-alphabet strings inside length bounds")
	}
	if p.Matches("x") {
		t.Error("fallback should enforce MinLen")
	}
	if p.Matches(strings.Repeat("a", 50)) {
		t.Error("fallback should enforce MaxLen")
	}
}

func TestLearnEmpty(t *testing.T) {
	p := Learn(nil)
	if !p.Matches("") || p.Matches("a") {
		t.Error("empty-learn pattern should match only empty string")
	}
}

func TestConformStructured(t *testing.T) {
	p := Learn([]string{"01004", "94107"})
	for _, tc := range []struct{ in string }{
		{"123"}, {"1234567"}, {"12a45"}, {"abcde"}, {""},
	} {
		got := p.Conform(tc.in)
		if !p.Matches(got) {
			t.Errorf("Conform(%q) = %q does not match %s", tc.in, got, p)
		}
	}
	// Already-conforming strings are untouched.
	if got := p.Conform("55555"); got != "55555" {
		t.Errorf("Conform left fixed point: %q", got)
	}
	// Partial reuse: digits are kept where possible.
	if got := p.Conform("12x45"); !strings.HasPrefix(got, "12") {
		t.Errorf("Conform should reuse leading digits, got %q", got)
	}
}

func TestConformLiteralSeparator(t *testing.T) {
	p := Learn([]string{"AB-123", "XY-456"})
	got := p.Conform("CD+789")
	if !p.Matches(got) {
		t.Errorf("Conform(%q) = %q not matching", "CD+789", got)
	}
	if !strings.Contains(got, "-") {
		t.Errorf("Conform should insert learned literal '-': %q", got)
	}
}

func TestConformUnstructured(t *testing.T) {
	p := Learn([]string{"hello world", "42", "Mixed-Case"})
	got := p.Conform("∆")
	if !p.Matches(got) {
		t.Errorf("unstructured Conform = %q not matching", got)
	}
}

func TestPatternString(t *testing.T) {
	p := Learn([]string{"01004"})
	if got := p.String(); got != "[0-9]{5,5}" {
		t.Errorf("String = %q", got)
	}
	u := Learn([]string{"a1", "abcd"})
	if !strings.Contains(u.String(), "{2,4}") {
		t.Errorf("unstructured String missing bounds: %q", u.String())
	}
}

func TestPatternEqual(t *testing.T) {
	a := Learn([]string{"01004", "94107"})
	b := Learn([]string{"11111", "22222"})
	if !a.Equal(b) {
		t.Error("same-format patterns should be Equal")
	}
	c := Learn([]string{"0100", "9410"})
	if a.Equal(c) {
		t.Error("different lengths should not be Equal")
	}
	d := Learn([]string{"aaaaa", "bbbbb"})
	if a.Equal(d) {
		t.Error("different class should not be Equal")
	}
}

// Property: Conform always yields a matching string, and Learn(examples)
// matches every example it was trained on.
func TestLearnMatchesTrainingProperty(t *testing.T) {
	alphabets := []string{"abc", "ABC", "012", "ab1-", "xyz XYZ 09"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alpha := []rune(alphabets[rng.Intn(len(alphabets))])
		examples := make([]string, 1+rng.Intn(6))
		for i := range examples {
			n := 1 + rng.Intn(12)
			var b strings.Builder
			for j := 0; j < n; j++ {
				b.WriteRune(alpha[rng.Intn(len(alpha))])
			}
			examples[i] = b.String()
		}
		p := Learn(examples)
		for _, ex := range examples {
			if !p.Matches(ex) {
				return false
			}
		}
		// Random probe strings must match after Conform.
		var probe strings.Builder
		for j := 0; j < rng.Intn(20); j++ {
			probe.WriteRune(rune('!' + rng.Intn(90)))
		}
		return p.Matches(p.Conform(probe.String()))
	}
	// This seed conforms a probe to a string shorter than the pattern allows
	// unless Conform brings the total length into bounds.
	if !f(-1752708899554321733) {
		t.Error("seed -1752708899554321733: a conformed probe does not match its pattern")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
