package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/dataset"
)

// maxExternalOutput caps how much of the program's stdout and stderr is
// read: a well-behaved scorer prints one float, so anything beyond 1 MiB is
// a runaway process whose output must not exhaust memory.
const maxExternalOutput = 1 << 20

// FailureRingSize bounds how many recent failure reasons a FailureRing
// retains for post-mortem diagnostics.
const FailureRingSize = 16

// FailureRing retains the most recent failure reasons, for External and for
// each fleet worker. The zero value is an empty ring; it is safe for
// concurrent use.
type FailureRing struct {
	mu  sync.Mutex
	buf [FailureRingSize]string
	n   int // total failures ever recorded
}

// Record stores a failure reason, overwriting the oldest once the ring is
// full.
func (r *FailureRing) Record(reason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.n%FailureRingSize] = reason
	r.n++
}

// Recent returns up to n recorded failure reasons, newest first.
func (r *FailureRing) Recent(n int) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	n = max(min(n, r.n, FailureRingSize), 0)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(r.n-1-i)%FailureRingSize])
	}
	return out
}

// External treats an external program as the black-box system: each
// malfunction evaluation pipes the candidate dataset to the program as CSV
// on stdin and parses a single float in [0,1] from its stdout.
//
// Failures are classified, not collapsed (TryMalfunctionScore):
//
//   - deterministic malfunction, score 1: the process ran and exited
//     non-zero, or spoke an invalid protocol (unparsable or out-of-range
//     score). The system crashed on the data — the extreme malfunction of
//     Definition 3 (the paper's "system crash due to invalid input
//     combination" failure class). The score is trustworthy and cacheable.
//   - transient failure, no score: timeout (the paper's Example 2), an
//     exec/fork-level error (the scorer never ran), a cancelled context, or
//     truncated output. Retrying may succeed; caching would poison.
//   - permanent failure, no score: misconfiguration (no command, CSV
//     encoding error). Retrying is pointless.
//
// Failure reasons are retained in a bounded ring (RecentFailures) and,
// optionally, reported through Logf.
type External struct {
	// Command is the program and its arguments.
	Command []string
	// Timeout bounds one evaluation; zero means 30 seconds. A timeout is
	// a transient failure.
	Timeout time.Duration
	// Logf, when set, receives a diagnostic line for every failed
	// evaluation (timeout, non-zero exit, unparsable or out-of-range
	// output). Useful for surfacing misconfigured scorer commands.
	Logf func(format string, args ...any)

	failures FailureRing
}

// Name implements FallibleSystem.
func (s *External) Name() string { return strings.Join(s.Command, " ") }

// TryMalfunctionScore implements FallibleSystem with the failure taxonomy
// described on External. Cancelling ctx kills the in-flight process, so
// deadlined or cancelled searches stop promptly instead of waiting out
// Timeout.
func (s *External) TryMalfunctionScore(ctx context.Context, d *dataset.Dataset) ScoreResult {
	if len(s.Command) == 0 {
		return s.permanent("no command configured")
	}
	var input bytes.Buffer
	if err := d.WriteCSV(&input); err != nil {
		return s.permanent("CSV encoding failed: %v", err)
	}
	timeout := s.Timeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	parent := ctx
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, s.Command[0], s.Command[1:]...)
	// Without a wait delay, a killed scorer whose grandchildren still hold
	// the stdout pipe would stall Run() until they exit; give up on the
	// pipes one second after cancellation or process exit.
	cmd.WaitDelay = time.Second
	cmd.Stdin = &input
	var stdout, stderr cappedBuffer
	stdout.limit, stderr.limit = maxExternalOutput, maxExternalOutput
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err != nil {
		var exitErr *exec.ExitError
		switch {
		case parent.Err() != nil:
			// The caller's context expired or was cancelled — not this
			// evaluation's own Timeout. ContextFailure keeps the context
			// sentinel errors.Is-visible alongside any cancel cause.
			return s.transient("cancelled: %w", ContextFailure(parent))
		case errors.Is(ctx.Err(), context.DeadlineExceeded):
			return s.transient("timeout after %v%s", timeout, stderrExcerpt(&stderr))
		case ctx.Err() != nil:
			return s.transient("cancelled: %w", ContextFailure(ctx))
		case errors.As(err, &exitErr):
			// The process ran to completion and exited non-zero: it crashed
			// on this input, which is deterministic in the data.
			return s.deterministic("process failed: %v%s", err, stderrExcerpt(&stderr))
		default:
			// exec/fork-level failure: the scorer never ran, so the data is
			// not implicated.
			return s.transient("exec failed: %v", err)
		}
	}
	if stdout.truncated {
		return s.transient("truncated output: stdout exceeded %d bytes", maxExternalOutput)
	}
	out := strings.TrimSpace(stdout.buf.String())
	score, err := strconv.ParseFloat(out, 64)
	if err != nil {
		return s.deterministic("unparsable score %q%s", clip(out, 80), stderrExcerpt(&stderr))
	}
	if score < 0 || score > 1 {
		return s.deterministic("score %v outside [0,1]", score)
	}
	return ScoreResult{Score: score, Attempts: 1}
}

// RecentFailures returns up to n recent failure reasons, newest first. The
// ring survives successful evaluations and concurrent batches, so the tail
// of a flaky run is available for post-mortem diagnostics even when the
// final evaluation succeeded.
func (s *External) RecentFailures(n int) []string { return s.failures.Recent(n) }

// record stores the failure reason in the diagnostic ring and emits it
// through Logf when configured.
func (s *External) record(format string, args ...any) string {
	reason := fmt.Sprintf(format, args...)
	s.failures.Record(reason)
	if s.Logf != nil {
		s.Logf("external system %q: %s", s.Name(), reason)
	}
	return reason
}

// transient records the reason and returns a retryable measurement failure.
func (s *External) transient(format string, args ...any) ScoreResult {
	// Errorf rather than Sprintf so %w verbs in format wrap their operands:
	// the cancellation paths pass ContextFailure(ctx) and must keep
	// context.Canceled / context.DeadlineExceeded errors.Is-visible.
	reasonErr := fmt.Errorf(format, args...)
	s.record("%s", reasonErr)
	return ScoreResult{
		Score:     math.NaN(),
		Err:       fmt.Errorf("%w: %w", reasonErr, ErrTransient),
		Transient: true,
		Attempts:  1,
	}
}

// permanent records the reason and returns a non-retryable failure.
func (s *External) permanent(format string, args ...any) ScoreResult {
	reason := s.record(format, args...)
	return ScoreResult{Score: math.NaN(), Err: errors.New(reason), Attempts: 1}
}

// deterministic records the reason and returns the extreme malfunction
// score: the system demonstrably crashed on this exact input.
func (s *External) deterministic(format string, args ...any) ScoreResult {
	s.record(format, args...)
	return ScoreResult{Score: 1, Deterministic: true, Attempts: 1}
}

// stderrExcerpt renders a short stderr tail for diagnostics.
func stderrExcerpt(b *cappedBuffer) string {
	msg := strings.TrimSpace(b.buf.String())
	if msg == "" {
		return ""
	}
	return "; stderr: " + clip(msg, 256)
}

// clip truncates s to at most n bytes plus an ellipsis, backing off to a
// rune boundary so a multi-byte character is never split mid-sequence.
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return s[:n] + "…"
}

// cappedBuffer collects writer output up to a byte limit, discarding (but
// flagging) the excess so a runaway child process cannot exhaust memory.
type cappedBuffer struct {
	buf       bytes.Buffer
	limit     int
	truncated bool
}

func (b *cappedBuffer) Write(p []byte) (int, error) {
	if room := b.limit - b.buf.Len(); room < len(p) {
		b.truncated = true
		if room > 0 {
			b.buf.Write(p[:room])
		}
		// Report full consumption so the child keeps a working pipe and
		// exits on its own terms; the excess is simply dropped.
		return len(p), nil
	}
	return b.buf.Write(p)
}

var _ io.Writer = (*cappedBuffer)(nil)
var _ FallibleSystem = (*External)(nil)
