// Package sessioncheck_bad is a lint fixture: every line marked with a
// want comment must be flagged by the sessioncheck analyzer.
package sessioncheck_bad

import "context"

func run() error { return nil }

// The context is accepted and silently dropped: a cancel upstream never
// reaches run.
func dropped(ctx context.Context, board string) error { // want:sessioncheck "never used"
	return run()
}

// Dropping it in a method breaks the chain just the same.
type campaign struct{}

func (c *campaign) sweep(ctx context.Context) error { // want:sessioncheck "never used"
	return run()
}
