package driver

import (
	"sync/atomic"

	"gpuperf/internal/clock"
	"gpuperf/internal/counters"
	"gpuperf/internal/gpu"
	"gpuperf/internal/meter"
	"gpuperf/internal/power"
)

// The launch cache memoizes the *noiseless* outcome of a kernel launch:
// the simulated execution time, the per-launch power waveform, and the
// base activity vector. All of these are pure functions of (board spec,
// programmed clock pair, kernel description) — the interval simulator and
// the hardware power model draw no randomness. Everything stochastic
// (profiler counter jitter, meter sampling noise) is applied *after* a
// cache lookup, from the device's own rng, so a run consumes exactly the
// same noise stream whether its launches hit or miss the cache and the
// results are byte-identical either way.
//
// Each device keeps its payloads in a map of its own and never shares
// them: a payload holds its device's watts and scope joules, and in a
// fleet every jittered device's power half differs. A map only ever holds
// one spec, so a modified spec booted under a stock board's name (the
// ablation experiments do this) cannot be served the stock board's
// entries. What devices do share is the noiseless timing: time, phase
// events and activities depend only on the spec's timing half
// (arch.Timing), so a sweep builds one gpu.TimingTable per timing half
// and benchmark, and each device's payloads are folded from that table
// with the device's own power model (PrecomputeTable). The table lives
// for one sweep call; nothing is process-wide. A process-wide payload
// tier once measured no hits in a fleet while costing CPU and heap on
// every workload (see docs/ARCHITECTURE.md, "Launch memoization" and
// "Timing tables").

// launchKey identifies one cacheable launch on its device. The spec is
// implied by the map's owner. The profiler flag is not part of the key:
// profiling only adds counter jitter after the lookup, so profiled and
// unprofiled launches share one payload.
type launchKey struct {
	pair   clock.Pair
	kernel uint64 // gpu.KernelDesc fingerprint
}

// cachedLaunch is the immutable noiseless payload. The trace must never be
// handed to callers directly — meter.Trace.Append mutates its last segment
// in place, so exposure requires a copy (see Device.Launch).
type cachedLaunch struct {
	time  float64
	trace meter.Trace
	acts  counters.Vector
	// scopeJ is the launch's GPU-domain energy split by power scope
	// (core vs memory, joules) — the noiseless per-scope integral the
	// live telemetry fan-out scales into watts. Pure function of the
	// same inputs as the trace, so cache hits and misses agree.
	scopeJ power.Breakdown
}

// newCachedLaunch folds a noiseless kernel result, evaluated at clk, into
// a launch payload with this device's power model. It only reads the
// result: a launch miss releases its own result afterwards, and a timing
// table's results are shared and never released. The phase's switching
// activity scales the energy events, never the profiler counters.
func (d *Device) newCachedLaunch(res *gpu.KernelResult, clk *clock.State) *cachedLaunch {
	cl := &cachedLaunch{time: res.Time, acts: res.Activities}
	for _, ph := range res.Phases {
		ev := ph.Events
		ev.Scale(ph.EnergyScale)
		w := d.pm.SystemWatts(clk, ev, ph.Duration)
		cl.trace = cl.trace.Append(ph.Duration, w)
		cl.scopeJ = cl.scopeJ.Add(d.pm.ScopeWatts(clk, ev, ph.Duration).Scale(ph.Duration))
	}
	return cl
}

// launchCachingOff is the global enable switch, read when a device boots
// and written only by setup code (cmd flags, tests), hence the atomic.
var launchCachingOff atomic.Bool // zero value: caching enabled

// LaunchCachingEnabled reports the global switch.
func LaunchCachingEnabled() bool { return !launchCachingOff.Load() }

// PushLaunchCachingEnabled globally enables or disables launch
// memoization for devices opened afterwards (the uncached reference mode
// of cmd/paper -nocache) and returns a restore function that puts the
// previous state back. Cached and uncached runs are byte-identical by
// construction; the switch exists so that claim stays checkable. It is
// the switch's one setter, so a failing test cannot leak a flipped
// switch into the rest of the suite:
//
//	defer driver.PushLaunchCachingEnabled(false)()
func PushLaunchCachingEnabled(on bool) (restore func()) {
	prev := !launchCachingOff.Swap(!on)
	return func() { launchCachingOff.Store(!prev) }
}

// DisableLaunchCache detaches this device from its launch cache; every
// subsequent launch re-runs the simulator. Determinism tests use this as
// the uncached reference.
func (d *Device) DisableLaunchCache() { d.cache, d.table = nil, nil }

// LaunchCaching reports whether the device memoizes its launches. A sweep
// builds and consults timing tables only for devices that do; the others
// simulate every launch.
func (d *Device) LaunchCaching() bool { return d.cache != nil }

// DefaultSharedLaunchCacheEntries was the capacity of the removed
// process-wide launch cache.
//
// Deprecated: launch payloads stay with the device that computed them;
// there is no shared cache to size.
const DefaultSharedLaunchCacheEntries = 16384

// LaunchCache is an empty stand-in for the removed process-wide launch
// cache.
//
// Deprecated: launch payloads stay with the device that computed them.
type LaunchCache struct{}

// NewLaunchCache returns an empty stand-in and ignores its capacity.
//
// Deprecated: launch payloads stay with the device that computed them.
func NewLaunchCache(int) *LaunchCache { return &LaunchCache{} }

// PushSharedLaunchCache does nothing; its restore function does nothing
// either.
//
// Deprecated: launch payloads stay with the device that computed them.
func PushSharedLaunchCache(*LaunchCache) (restore func()) { return func() {} }
