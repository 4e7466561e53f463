// Package faultsafety_bad is a lint fixture: every line marked with a
// want comment must be flagged by the faultsafety analyzer.
package faultsafety_bad

import (
	"context"
	"time"
)

// resilience stands in for fault.Resilience: its watchdog context comes
// from a function outside package context.
type resilience struct{ timeout time.Duration }

func (r *resilience) LaunchContext(parent context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(parent, r.timeout)
}

// discarded: the watchdog timer leaks until the deadline fires.
func leakByBlank() context.Context {
	ctx, _ := context.WithTimeout(context.Background(), time.Second) // want:faultsafety "discarded with _"
	return ctx
}

// released only into a blank assignment — never actually called.
func leakByBlankAssign() context.Context {
	ctx, cancel := context.WithCancel(context.Background()) // want:faultsafety "never released"
	_ = cancel
	return ctx
}

// a harness watchdog discarded at the call site.
func leakWatchdog(r *resilience) context.Context {
	ctx, _ := r.LaunchContext(context.Background()) // want:faultsafety "discarded with _"
	return ctx
}
