package pipeline

import (
	"context"
	"errors"
	"fmt"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
)

func requireSh(t *testing.T) {
	t.Helper()
	if _, err := exec.LookPath("sh"); err != nil {
		t.Skip("sh not available")
	}
}

func extData() *dataset.Dataset {
	d := dataset.New()
	d.MustAddNumeric("x", []float64{1, 2, 3})
	return d
}

// try scores extData under a background context.
func try(sys *External) ScoreResult {
	return sys.TryMalfunctionScore(context.Background(), extData())
}

// lastReason returns the newest entry of the failure ring, or "".
func lastReason(sys *External) string {
	if tail := sys.RecentFailures(1); len(tail) == 1 {
		return tail[0]
	}
	return ""
}

func TestExternalScore(t *testing.T) {
	requireSh(t)
	sys := &External{Command: []string{"sh", "-c", "cat > /dev/null; echo 0.25"}}
	if r := try(sys); r.Err != nil || r.Score != 0.25 || r.Deterministic {
		t.Errorf("result = %+v, want score 0.25", r)
	}
	if sys.Name() == "" {
		t.Error("Name empty")
	}
}

func TestExternalReceivesCSV(t *testing.T) {
	requireSh(t)
	// The command counts input lines (header + 3 rows = 4) and maps the
	// count to a score, proving the dataset actually reaches stdin.
	sys := &External{Command: []string{"sh", "-c", `n=$(wc -l); if [ "$n" -eq 4 ]; then echo 0; else echo 1; fi`}}
	if r := try(sys); r.Err != nil || r.Score != 0 {
		t.Errorf("result = %+v, want score 0 (4 CSV lines seen)", r)
	}
}

// TestExternalFailureModes checks each failure lands in its class: a
// crash or protocol violation is the deterministic malfunction 1, a
// timeout is a transient failure, and a missing command is permanent.
func TestExternalFailureModes(t *testing.T) {
	requireSh(t)
	const (
		deterministic = "deterministic"
		transient     = "transient"
		permanent     = "permanent"
	)
	cases := map[string]struct {
		sys   *External
		class string
	}{
		"nonzero exit":  {&External{Command: []string{"sh", "-c", "exit 3"}}, deterministic},
		"garbage":       {&External{Command: []string{"sh", "-c", "echo not-a-number"}}, deterministic},
		"negative":      {&External{Command: []string{"sh", "-c", "echo -0.5"}}, deterministic},
		"above one":     {&External{Command: []string{"sh", "-c", "echo 7"}}, deterministic},
		"empty command": {&External{Command: nil}, permanent},
		"timeout":       {&External{Command: []string{"sh", "-c", "sleep 5; echo 0"}, Timeout: 50 * time.Millisecond}, transient},
	}
	for name, tc := range cases {
		r := try(tc.sys)
		var got string
		switch {
		case r.Err == nil && r.Deterministic && r.Score == 1:
			got = deterministic
		case r.Err != nil && r.Transient && errors.Is(r.Err, ErrTransient):
			got = transient
		case r.Err != nil && !r.Transient:
			got = permanent
		}
		if got != tc.class {
			t.Errorf("%s: result %+v, want class %s", name, r, tc.class)
		}
	}
}

// TestExternalFailureReasons checks that the failure ring distinguishes
// the failure classes — in particular timeout vs. parse failure, which need
// very different operator responses.
func TestExternalFailureReasons(t *testing.T) {
	requireSh(t)
	cases := []struct {
		name string
		sys  *External
		want string
	}{
		{"timeout", &External{Command: []string{"sh", "-c", "sleep 5; echo 0"}, Timeout: 50 * time.Millisecond}, "timeout after"},
		{"parse failure", &External{Command: []string{"sh", "-c", "echo not-a-number"}}, "unparsable score"},
		{"out of range", &External{Command: []string{"sh", "-c", "echo 7"}}, "outside [0,1]"},
		{"no command", &External{}, "no command configured"},
		{"process failed", &External{Command: []string{"sh", "-c", "exit 3"}}, "process failed"},
	}
	for _, tc := range cases {
		r := try(tc.sys)
		if r.Err == nil && !r.Deterministic {
			t.Errorf("%s: result %+v, want a failure", tc.name, r)
		}
		if reason := lastReason(tc.sys); !strings.Contains(reason, tc.want) {
			t.Errorf("%s: RecentFailures(1) = %q, want substring %q", tc.name, reason, tc.want)
		}
		if r.Err != nil && !strings.Contains(r.Err.Error(), tc.want) {
			t.Errorf("%s: Err = %v, want substring %q", tc.name, r.Err, tc.want)
		}
	}
}

// TestExternalStderrCaptured checks the child's stderr reaches the
// diagnostic message.
func TestExternalStderrCaptured(t *testing.T) {
	requireSh(t)
	sys := &External{Command: []string{"sh", "-c", "echo boom-diagnostic >&2; exit 2"}}
	if r := try(sys); !r.Deterministic || r.Score != 1 {
		t.Fatalf("result = %+v, want the deterministic malfunction 1", r)
	}
	if reason := lastReason(sys); !strings.Contains(reason, "boom-diagnostic") {
		t.Errorf("RecentFailures(1) = %q, want stderr excerpt", reason)
	}
}

// TestExternalStdoutCapped checks a runaway child printing far more than the
// 1 MiB cap fails transiently with a truncation reason instead of buffering
// it all.
func TestExternalStdoutCapped(t *testing.T) {
	requireSh(t)
	sys := &External{Command: []string{"sh", "-c", "head -c 3000000 /dev/zero | tr '\\0' 'x'"}}
	r := try(sys)
	if r.Err == nil || !r.Transient {
		t.Fatalf("result = %+v, want a transient failure", r)
	}
	if !strings.Contains(r.Err.Error(), "stdout exceeded") {
		t.Errorf("Err = %v, want stdout-cap reason", r.Err)
	}
}

// TestExternalCancellation checks a cancelled context kills the in-flight
// process promptly and is reported as cancellation, not timeout.
func TestExternalCancellation(t *testing.T) {
	requireSh(t)
	sys := &External{Command: []string{"sh", "-c", "sleep 10; echo 0"}, Timeout: time.Minute}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	r := sys.TryMalfunctionScore(ctx, extData())
	if !errors.Is(r.Err, context.Canceled) || !r.Transient {
		t.Fatalf("result = %+v, want a transient failure wrapping context.Canceled", r)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation not prompt: %v", elapsed)
	}
	if reason := lastReason(sys); !strings.Contains(reason, "cancelled") {
		t.Errorf("RecentFailures(1) = %q, want cancellation reason", reason)
	}
}

// TestExternalLogf checks failures are surfaced through the optional logger.
func TestExternalLogf(t *testing.T) {
	requireSh(t)
	var logged []string
	sys := &External{
		Command: []string{"sh", "-c", "echo nope"},
		Logf:    func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) },
	}
	try(sys)
	if len(logged) != 1 || !strings.Contains(logged[0], "unparsable") {
		t.Errorf("logged = %q, want one unparsable-score line", logged)
	}
}
