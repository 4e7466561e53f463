package driver

import (
	"sync/atomic"

	"gpuperf/internal/clock"
	"gpuperf/internal/counters"
	"gpuperf/internal/gpu"
	"gpuperf/internal/meter"
	"gpuperf/internal/power"
)

// A launch's noiseless outcome — execution time, power waveform,
// activity vector — is a pure function of (board spec, clock pair,
// kernel): neither the simulator nor the power model draws randomness,
// and everything stochastic is applied after the lookup from the device's
// own rng, so hits and misses give byte-identical results.
//
// Time, phase events and activities depend only on the timing half
// (arch.Timing) and the pair, so a device that adopted a gpu.TimingTable
// (PrecomputeTable) folds each launch of its kernels at its pairs from the
// shared result with its own power model, and stores nothing. Any other
// launch keeps its payload in the device's own map: it holds the device's
// watts, and a modified spec under a stock board's name (the ablations)
// must not be served the stock board's. See docs/ARCHITECTURE.md, "Launch
// memoization".

// launchKey identifies one memoized launch on its device; the map's owner
// implies the spec. Profiling only adds counter jitter after the lookup,
// so profiled and unprofiled launches share one key.
type launchKey struct {
	pair   clock.Pair
	kernel uint64 // gpu.KernelDesc fingerprint
}

// cachedLaunch is a noiseless launch payload. Its trace never escapes by
// reference (see Device.Launch): meter.Trace.Append mutates the last
// segment in place, and the next table launch refolds the payload.
type cachedLaunch struct {
	time  float64
	trace meter.Trace
	acts  counters.Vector
	// scopeJ is the GPU-domain energy by power scope (joules), which the
	// live telemetry fan-out scales into watts.
	scopeJ power.Breakdown
}

// adoption is a timing table a device launches from and the pairs it was
// adopted at, one pairBit each.
type adoption struct {
	tab   *gpu.TimingTable
	pairs uint16
}

// pairBit is p's bit among the 3×3 (core, memory) level combinations.
func pairBit(p clock.Pair) uint16 { return 1 << (3*int(p.Core) + int(p.Mem)) }

// fromTable returns k's noiseless result at p from a table adopted at p
// that holds k or an equal copy, or nil. The newest adoption goes first:
// a collector adopts a table per input size and launches the latest's.
func (d *Device) fromTable(k *gpu.KernelDesc, p clock.Pair) *gpu.KernelResult {
	for i := len(d.adopted) - 1; i >= 0; i-- {
		if a := &d.adopted[i]; a.pairs&pairBit(p) != 0 {
			if j, ok := a.tab.KernelIndex(k); ok {
				return a.tab.Result(j, p)
			}
		}
	}
	return nil
}

// fold folds a noiseless result at the programmed pair into cl with this
// device's power model, reusing cl's waveform and keeping no reference to
// res. Switching activity scales the energy events, never the counters.
func (d *Device) fold(cl *cachedLaunch, res *gpu.KernelResult) {
	cl.time, cl.trace, cl.acts, cl.scopeJ = res.Time, cl.trace[:0], res.Activities, power.Breakdown{}
	for _, ph := range res.Phases {
		ev := ph.Events
		ev.Scale(ph.EnergyScale)
		cl.trace = cl.trace.Append(ph.Duration, d.pm.SystemWatts(d.clk, ev, ph.Duration))
		cl.scopeJ = cl.scopeJ.Add(d.pm.ScopeWatts(d.clk, ev, ph.Duration).Scale(ph.Duration))
	}
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

// DisableLaunchCache detaches this device from its launch cache and its
// adopted tables; every subsequent launch re-runs the simulator.
// Determinism tests use this as the uncached reference.
func (d *Device) DisableLaunchCache() { d.caching, d.adopted, d.cache = false, nil, nil }

// LaunchCaching reports whether the device memoizes its launches. A sweep
// builds and consults timing tables only for devices that do; the others
// simulate every launch.
func (d *Device) LaunchCaching() bool { return d.caching }

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
