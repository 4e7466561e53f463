package fault

import (
	"context"
	"fmt"
	"time"

	"gpuperf/internal/obs"
)

// Harness defaults. The backoff exists to model (and test) the real
// harness's pacing, not to wait out real hardware, so the scale is
// milliseconds.
const (
	DefaultMaxRetries    = 3
	DefaultLaunchTimeout = 5 * time.Second
	DefaultBackoffBase   = time.Millisecond
	DefaultBackoffMax    = 50 * time.Millisecond
)

// Resilience bundles the retry/watchdog policy the sweep and collect
// harnesses share. A nil *Resilience (or one with a nil Campaign) means
// "run exactly once, inject nothing" — the plain fast path.
type Resilience struct {
	Campaign *Campaign
	// MaxRetries bounds retries per unit of work (attempts = MaxRetries+1).
	MaxRetries int
	// LaunchTimeout arms the per-launch watchdog; <= 0 disables it (an
	// injected hang then fails fast instead of blocking).
	LaunchTimeout time.Duration
	// Sleep is the pause implementation, injectable so tests run at full
	// speed; nil means time.Sleep.
	Sleep func(time.Duration)
	// Obs, when non-nil, receives harness instrumentation: injected faults
	// by point, retries by point, total backoff pause. Call Observe once
	// after setting it (the harness setup paths do), before workers start.
	Obs *obs.Recorder
	ro  *resObs
}

// resObs holds the policy's registered metric handles.
type resObs struct {
	injections *obs.CounterVec
	retries    *obs.CounterVec
	backoffUS  *obs.Counter
}

// Observe registers the policy's metrics with Obs. Idempotent and
// nil-safe; must run on the setup path (before the worker pool), never
// from workers.
func (r *Resilience) Observe() {
	if r == nil || r.Obs == nil || r.ro != nil {
		return
	}
	reg := r.Obs.Metrics()
	r.ro = &resObs{
		injections: reg.CounterVec("fault_injections_total", "faults injected, by point", "point"),
		retries:    reg.CounterVec("fault_retries_total", "harness retries, by blamed fault point", "point"),
		backoffUS:  reg.Counter("fault_backoff_microseconds_total", "total deterministic backoff pause"),
	}
	// Materialize a zero base series per vec so the families appear in the
	// exposition even when the campaign never fires or retries.
	reg.Counter("fault_injections_total", "faults injected, by point")
	reg.Counter("fault_retries_total", "harness retries, by blamed fault point")
}

// RecordRetry counts one harness retry blamed on a fault point.
func (r *Resilience) RecordRetry(pt Point) {
	if r == nil || r.ro == nil {
		return
	}
	r.ro.retries.With(string(pt)).Inc()
}

// Attempts returns how many times a unit of work may run.
func (r *Resilience) Attempts() int {
	if r == nil || r.MaxRetries < 0 {
		return 1
	}
	return r.MaxRetries + 1
}

// Injector derives the (scope, attempt) injector, nil-safe. When the
// policy is observed, the injector reports each fired fault point.
func (r *Resilience) Injector(scope string, attempt int) *Injector {
	if r == nil {
		return nil
	}
	in := r.Campaign.Injector(scope, attempt)
	if in != nil && r.ro != nil {
		ro := r.ro
		in.onFire = func(pt Point) { ro.injections.With(string(pt)).Inc() }
	}
	return in
}

// Backoff returns the pause before retry #attempt (zero-based): an
// exponential from DefaultBackoffBase capped at DefaultBackoffMax, with
// deterministic jitter in [d/2, d), derived by hashing (scope, attempt)
// so concurrent workers desynchronize without any global rand — reruns
// pause identically, keeping retry traces reproducible.
func (r *Resilience) Backoff(scope string, attempt int) time.Duration {
	d := DefaultBackoffBase
	for i := 0; i < attempt && d < DefaultBackoffMax; i++ {
		d *= 2
	}
	if d > DefaultBackoffMax {
		d = DefaultBackoffMax
	}
	if d <= 1 {
		return d
	}
	half := d / 2
	jitter := time.Duration(hash64(fmt.Sprintf("backoff|%s|%d", scope, attempt)) % uint64(half))
	return half + jitter
}

// Pause sleeps the backoff for retry #attempt.
func (r *Resilience) Pause(scope string, attempt int) {
	sleep := time.Sleep
	if r != nil && r.Sleep != nil {
		sleep = r.Sleep
	}
	d := r.Backoff(scope, attempt)
	if r != nil && r.ro != nil {
		r.ro.backoffUS.Add(d.Microseconds())
	}
	sleep(d)
}

// LaunchContext arms the per-launch watchdog: a context that expires
// after LaunchTimeout. With no timeout configured it returns the parent
// unchanged with a no-op cancel, so callers can always `defer cancel()`.
func (r *Resilience) LaunchContext(parent context.Context) (context.Context, context.CancelFunc) {
	if parent == nil {
		parent = context.Background()
	}
	if r == nil || r.LaunchTimeout <= 0 {
		return parent, func() {}
	}
	return context.WithTimeout(parent, r.LaunchTimeout)
}

// ValidateHarness is the shared CLI flag validation: every command
// surfacing the harness flags rejects nonsense before booting anything.
func ValidateHarness(workers, maxRetries int, launchTimeout time.Duration) error {
	if workers < 1 {
		return fmt.Errorf("-workers must be >= 1 (got %d)", workers)
	}
	if maxRetries < 0 {
		return fmt.Errorf("-max-retries must be >= 0 (got %d)", maxRetries)
	}
	if launchTimeout <= 0 {
		return fmt.Errorf("-launch-timeout must be positive (got %v)", launchTimeout)
	}
	return nil
}
