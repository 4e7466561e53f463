package reproduce

import (
	"context"
	"errors"
	"io"
	"testing"

	"gpuperf/internal/obs"
	"gpuperf/internal/regress"
)

// cancelAfterSelections is a context that cancels itself with cause the
// first time its Err is read once reg counts at least after forward
// selections. Every selection step reads Err first, so the cancel lands
// at the first step boundary past that count, in whatever order the
// modeling jobs run.
type cancelAfterSelections struct {
	context.Context
	reg    *obs.Registry
	after  int64
	cancel context.CancelCauseFunc
	cause  error
}

func (c *cancelAfterSelections) Err() error {
	if n, _ := c.reg.Total("regress_forward_selections_total"); n >= c.after {
		c.cancel(c.cause)
	}
	return c.Context.Err()
}

// TestModelingCancelStopsPerPairFits: a cancel that lands once the Figs.
// 9/10 per-pair fits have begun stops them at a selection-step boundary.
// One board's two families make four selections, a capped model and a
// cap-20 sweep each; the context cancels itself once a fifth selection,
// a per-pair fit in any job order, has been counted. RunContext must
// fail with the cause wrapped, having counted fewer selections than an
// uncancelled run, at the sequential reference and on the pool.
func TestModelingCancelStopsPerPairFits(t *testing.T) {
	opts := DefaultOptions()
	opts.Boards = []string{"GTX 480"}
	opts.Apparatus, opts.Characterization = false, false
	opts.Ablations, opts.FutureWork, opts.SelfCheck = false, false, false

	// selections runs the modeling section under the context wrap makes
	// of a fresh background context and returns the selections counted.
	selections := func(wrap func(context.Context, *obs.Registry) context.Context) (int64, error) {
		reg := obs.NewRegistry()
		defer regress.Observe(reg)()
		_, err := RunContext(wrap(context.Background(), reg), opts, io.Discard)
		n, _ := reg.Total("regress_forward_selections_total")
		return n, err
	}
	opts.Workers = 1
	full, err := selections(func(ctx context.Context, _ *obs.Registry) context.Context { return ctx })
	if err != nil {
		t.Fatal(err)
	}

	const after = 2*2 + 1
	stop := errors.New("stop the per-pair fits")
	for _, workers := range []int{1, 2} {
		opts.Workers = workers
		n, err := selections(func(ctx context.Context, reg *obs.Registry) context.Context {
			ctx, cancel := context.WithCancelCause(ctx)
			t.Cleanup(func() { cancel(nil) })
			return &cancelAfterSelections{Context: ctx, reg: reg, after: after, cancel: cancel, cause: stop}
		})
		if !errors.Is(err, stop) {
			t.Fatalf("workers=%d: RunContext returned %v, want the cancel's cause in the chain", workers, err)
		}
		if n < after || n >= full {
			t.Errorf("workers=%d: %d selections counted, want at least %d and fewer than the uncancelled run's %d",
				workers, n, after, full)
		}
	}
}
