// Package faultsafety_ok is a lint fixture: nothing here may be flagged
// by the faultsafety analyzer.
package faultsafety_ok

import (
	"context"
	"time"
)

// deferred release is the canonical pattern.
func deferred() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = ctx
}

// calling the cancel directly after use is fine too.
func direct() {
	ctx, cancel := context.WithCancel(context.Background())
	_ = ctx
	cancel()
}

// returning the cancel hands the release duty to the caller.
func handedOff() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Second))
	return ctx, cancel
}
