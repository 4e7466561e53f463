package driver

import (
	"fmt"

	"gpuperf/internal/clock"
	"gpuperf/internal/gpu"
)

// PrecomputePairs fills the device's launch cache for every (kernel,
// pair) combination in one batched pass, kernel-major: each kernel is
// compiled once (gpu.Sim.Compile hoists everything frequency-invariant —
// event tallies, derated hit fractions, replay factors, wave geometry) and
// the compiled form is evaluated at all missing pairs, instead of
// re-deriving the invariants per pair as per-launch simulation does. A
// sweep calls this once per (board, benchmark) before its pair loop, so
// the loop's launches all hit the device's map, profiled or not.
//
// The cached payloads are bit-identical to what a launch miss would have
// stored: RunPairs and Sim.RunKernel evaluate the same compiled kernel (a
// property test in internal/gpu holds both to the frozen reference model),
// and both paths build the payload with newCachedLaunch, here on a
// scratch copy of the device's clock, per-level tables included,
// programmed to each pair. The device's own clock, noise stream and fault
// state are never touched — precompute is invisible to everything but the
// cache and the miss counter.
//
// Returns the number of entries newly simulated; zero when launch caching
// is disabled on this device, in which case nothing happens at all.
func (d *Device) PrecomputePairs(ks []*gpu.KernelDesc, pairs []clock.Pair) (int, error) {
	if d.cache == nil || len(ks) == 0 || len(pairs) == 0 {
		return 0, nil
	}
	o := d.obs
	scratch := *d.clk
	simulated := 0
	var missing []clock.Pair
	for _, k := range ks {
		kfp := k.Fingerprint()
		missing = missing[:0]
		for _, p := range pairs {
			if _, ok := d.cache[launchKey{pair: p, kernel: kfp}]; !ok {
				missing = append(missing, p)
			}
		}
		if len(missing) == 0 {
			continue
		}
		ck, err := d.sim.Compile(k)
		if err != nil {
			return simulated, fmt.Errorf("driver: precompute %q: %w", k.Name, err)
		}
		results, err := d.sim.RunPairs(ck, missing)
		if err != nil {
			return simulated, fmt.Errorf("driver: precompute %q: %w", k.Name, err)
		}
		for mi, res := range results {
			if err := scratch.SetPair(missing[mi]); err != nil {
				return simulated, fmt.Errorf("driver: precompute %q: %w", k.Name, err)
			}
			d.cache[launchKey{pair: missing[mi], kernel: kfp}] = d.newCachedLaunch(res, &scratch)
			simulated++
			if o != nil {
				o.misses.Inc()
			}
		}
	}
	return simulated, nil
}
