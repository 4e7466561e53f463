package driver

import (
	"fmt"

	"gpuperf/internal/clock"
	"gpuperf/internal/gpu"
)

// PrecomputeTable fills the device's launch cache for every kernel of a
// timing table at the given pairs, which the table must hold. A sweep
// calls it once per (board, benchmark) job before its pair loop, so the
// loop's launches all hit the device's map, profiled or not.
//
// The table supplies the noiseless timing, shared by every device with
// this timing half; the device folds each result into its own payload
// with its own power model (newCachedLaunch), on a scratch copy of its
// clock, per-level tables included, programmed to the pair. The payloads
// are bit-identical to what a launch miss would have stored: the table
// and Sim.RunKernel evaluate the same compiled kernel (a property test in
// internal/gpu holds both to the frozen reference model), and the timing
// model reads only the timing half. The device's own clock, noise stream
// and fault state are never touched — precompute is invisible to
// everything but the cache and the miss counter, which counts one per
// payload built. Entries the cache already holds are skipped. From here
// on, a launch of one of the table's own descriptors takes its
// fingerprint from the table instead of hashing it.
//
// The table must have been built for this device's timing half. Returns
// the number of payloads built; zero when launch caching is disabled on
// this device, in which case the table is neither read nor kept.
func (d *Device) PrecomputeTable(t *gpu.TimingTable, pairs []clock.Pair) (int, error) {
	if d.cache == nil {
		return 0, nil
	}
	if *t.Timing() != d.spec.Timing {
		return 0, fmt.Errorf("driver: %s: timing table built for another timing half", d.spec.Name)
	}
	d.table = t
	o := d.obs
	scratch := *d.clk
	built := 0
	for i, k := range t.Kernels() {
		kfp := t.KernelFingerprint(i)
		for _, p := range pairs {
			key := launchKey{pair: p, kernel: kfp}
			if _, ok := d.cache[key]; ok {
				continue
			}
			res := t.Result(i, p)
			if res == nil {
				return built, fmt.Errorf("driver: precompute %q: timing table has no pair %s", k.Name, p)
			}
			if err := scratch.SetPair(p); err != nil {
				return built, fmt.Errorf("driver: precompute %q: %w", k.Name, err)
			}
			d.cache[key] = d.newCachedLaunch(res, &scratch)
			built++
			if o != nil {
				o.misses.Inc()
			}
		}
	}
	return built, nil
}

// PrecomputePairs is PrecomputeTable over a private table for this
// device's own timing half, built from ks and pairs. It serves callers
// with one device per kernel list, such as the Section IV collector;
// sweeps share one table across the devices of a timing half instead.
// Returns the number of payloads built; zero when launch caching is
// disabled, in which case no table is built.
func (d *Device) PrecomputePairs(ks []*gpu.KernelDesc, pairs []clock.Pair) (int, error) {
	if d.cache == nil || len(ks) == 0 || len(pairs) == 0 {
		return 0, nil
	}
	t, err := gpu.NewTimingTable(d.spec, ks, pairs)
	if err != nil {
		return 0, fmt.Errorf("driver: precompute: %w", err)
	}
	return d.PrecomputeTable(t, pairs)
}
