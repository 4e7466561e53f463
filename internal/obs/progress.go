package obs

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// StartProgressCtx spawns a goroutine that writes a one-line status
// summary of the named counter families to w every interval, returning a
// stop function that is safe to call more than once (it prints a final
// line and waits for the goroutine to exit). Cancelling ctx also stops
// the ticker — commands pass their SIGINT/SIGTERM context so an early
// exit cannot leak the goroutine, and the daemon's signal handler reuses
// the same mechanism. Progress lines use the wall clock for pacing and
// elapsed time — they go to stderr, not to a determinism artifact.
func (r *Recorder) StartProgressCtx(ctx context.Context, w io.Writer, interval time.Duration, families ...string) (stop func()) {
	if r == nil || w == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = 2 * time.Second
	}
	start := time.Now()
	done := make(chan struct{})
	finished := make(chan struct{})
	line := func(prefix string) {
		var b strings.Builder
		b.WriteString(prefix)
		for _, fam := range families {
			v, ok := r.reg.Total(fam)
			if !ok {
				continue
			}
			fmt.Fprintf(&b, " %s=%d", shortFamily(fam), v)
		}
		fmt.Fprintf(&b, " elapsed=%s\n", time.Since(start).Round(time.Second))
		_, _ = io.WriteString(w, b.String()) // best-effort status line
	}
	go func() {
		defer close(finished)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				line("progress(final):")
				return
			case <-ctx.Done():
				line("progress(final):")
				return
			case <-tick.C:
				line("progress:")
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-finished
	}
}

// shortFamily trims the common metric-name affixes so progress lines stay
// on one line: "characterize_cells_total" -> "cells".
func shortFamily(name string) string {
	name = strings.TrimSuffix(name, "_total")
	for _, prefix := range []string{"characterize_", "driver_", "meter_", "fault_", "regress_", "core_"} {
		if s, ok := strings.CutPrefix(name, prefix); ok {
			return s
		}
	}
	return name
}
