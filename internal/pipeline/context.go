package pipeline

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dataset"
)

// ContextFailure renders a done context as an error that always wraps the
// context's sentinel (context.Canceled or context.DeadlineExceeded), and
// additionally wraps the cancel cause when one was set via
// context.WithCancelCause. A raw context.Cause value is not guaranteed to
// wrap the sentinel, so propagating it alone breaks every
// errors.Is(err, context.Canceled) check downstream — the engine's Fatal
// classification among them. Returns nil while ctx is still live.
func ContextFailure(ctx context.Context) error {
	err := ctx.Err()
	if err == nil {
		return nil
	}
	if cause := context.Cause(ctx); cause != nil && !errors.Is(cause, err) {
		return fmt.Errorf("%w (cause: %w)", err, cause)
	}
	return err
}

// ContextSystem is the context-aware form of System: a malfunction
// evaluation that observes the caller's context, so searches can be
// cancelled or deadlined mid-flight. Implementations that cannot interrupt
// an in-progress evaluation (pure in-process scorers) may ignore the
// context — the engine layer still checks it between evaluations, so
// cancellation is honored at evaluation granularity.
type ContextSystem interface {
	// Name identifies the system in reports.
	Name() string
	// MalfunctionScore quantifies how much the system malfunctions on d,
	// observing ctx for cancellation where possible.
	MalfunctionScore(ctx context.Context, d *dataset.Dataset) float64
}

// CtxFunc adapts a plain context-aware function into a ContextSystem.
type CtxFunc struct {
	SystemName string
	Score      func(ctx context.Context, d *dataset.Dataset) float64
}

// Name implements ContextSystem.
func (f *CtxFunc) Name() string { return f.SystemName }

// MalfunctionScore implements ContextSystem.
func (f *CtxFunc) MalfunctionScore(ctx context.Context, d *dataset.Dataset) float64 {
	return f.Score(ctx, d)
}

// AsContext adapts a System to a ContextSystem that ignores the context
// while scoring; the engine still checks the context between evaluations.
func AsContext(sys System) ContextSystem {
	return &CtxFunc{
		SystemName: sys.Name(),
		Score:      func(_ context.Context, d *dataset.Dataset) float64 { return sys.MalfunctionScore(d) },
	}
}
