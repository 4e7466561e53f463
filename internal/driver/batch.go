package driver

import (
	"fmt"
	"slices"

	"gpuperf/internal/clock"
	"gpuperf/internal/gpu"
)

// PrecomputeTable adopts a timing table, built for this device's timing
// half, at the given pairs, which the table must hold. A sweep calls it
// once per (board, benchmark) job before its pair loop. From then on a
// launch of one of the table's kernels, or of an equal copy, at one of
// those pairs, profiled or not, folds the table's shared result with the
// device's own power model and stores nothing. The fold is bit-identical
// to a launch miss's: both evaluate the same compiled kernel (a property
// test in internal/gpu holds them to the frozen reference model), and
// timing reads only the timing half.
//
// It counts, and returns, one launch-cache miss per kernel and pair that
// no earlier adoption and no map entry serves, so adopting the same
// kernels and pairs again counts none. With launch caching disabled it
// returns zero and neither reads nor keeps the table.
func (d *Device) PrecomputeTable(t *gpu.TimingTable, pairs []clock.Pair) (int, error) {
	if !d.caching {
		return 0, nil
	}
	if *t.Timing() != d.spec.Timing {
		return 0, fmt.Errorf("driver: %s: timing table built for another timing half", d.spec.Name)
	}
	a := adoption{tab: t}
	for _, p := range pairs {
		if !slices.Contains(t.Pairs(), p) {
			return 0, fmt.Errorf("driver: precompute: timing table has no pair %s", p)
		}
		a.pairs |= pairBit(p)
	}
	misses := 0
	for i, k := range t.Kernels() {
		for _, p := range t.Pairs() {
			if a.pairs&pairBit(p) != 0 && d.fromTable(k, p) == nil && d.cache[launchKey{pair: p, kernel: t.KernelFingerprint(i)}] == nil {
				misses++
			}
		}
	}
	// An earlier adoption whose kernels this table holds, at pairs it is
	// adopted at, serves nothing more: a device that sweeps one benchmark
	// again and again keeps one table.
	d.adopted = slices.DeleteFunc(d.adopted, func(old adoption) bool {
		return old.pairs&^a.pairs == 0 && !slices.ContainsFunc(old.tab.Kernels(), func(k *gpu.KernelDesc) bool {
			_, ok := t.KernelIndex(k)
			return !ok
		})
	})
	d.adopted = append(d.adopted, a)
	if o := d.obs; o != nil {
		o.misses.Add(int64(misses))
	}
	return misses, nil
}

// PrecomputePairs is PrecomputeTable over a private table for this
// device's own timing half, built from ks and pairs. It serves callers
// with one device per kernel list, such as the Section IV collector;
// sweeps share one table across the devices of a timing half instead.
// Returns the miss count; zero when launch caching is disabled, in which
// case no table is built.
func (d *Device) PrecomputePairs(ks []*gpu.KernelDesc, pairs []clock.Pair) (int, error) {
	if !d.caching || len(ks) == 0 || len(pairs) == 0 {
		return 0, nil
	}
	t, err := gpu.NewTimingTable(d.spec, ks, pairs)
	if err != nil {
		return 0, fmt.Errorf("driver: precompute: %w", err)
	}
	return d.PrecomputeTable(t, pairs)
}
