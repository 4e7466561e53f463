// Package sessioncheck_ok is a lint fixture: nothing here may be flagged
// by the sessioncheck analyzer.
package sessioncheck_ok

import "context"

func runCtx(ctx context.Context) error { return ctx.Err() }

// Threading the context to a callee keeps the cancellation chain intact.
func threaded(ctx context.Context, board string) error {
	return runCtx(ctx)
}

// Checking Err is a use: this function stops at the boundary itself.
func checked(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return nil
}

// A function that genuinely needs no context opts out with _.
func optedOut(_ context.Context, board string) string { return board }

// An unnamed context parameter (interface-shaped signature) is exempt.
func unnamed(context.Context) {}
