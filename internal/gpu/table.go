package gpu

import (
	"fmt"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
)

// TimingTable is the noiseless timing of a kernel list at a pair list on
// one timing half: every kernel compiled once, fingerprinted once and
// evaluated at every pair. Execution time, phase events and activities
// depend only on arch.Timing and the pair, so every device whose spec has
// this timing half — every jittered device of one base board — can launch
// from one table and compute only its own watts.
//
// A table is immutable after NewTimingTable and safe for concurrent reads
// by any number of goroutines. Its kernel descriptors and results are
// shared by every reader and must not be modified.
type TimingTable struct {
	timing  arch.Timing
	kernels []*KernelDesc
	fps     []uint64
	pairs   []clock.Pair
	results []KernelResult // [kernel·len(pairs) + pair]
}

// NewTimingTable compiles every kernel for spec's timing half and
// evaluates it at every pair. Only spec.Timing is read: a table built on
// one device's spec serves every spec with an equal timing half. The
// table takes ownership of ks and pairs. Its results and their phases
// live in two slabs of its own.
func NewTimingTable(spec *arch.Spec, ks []*KernelDesc, pairs []clock.Pair) (*TimingTable, error) {
	clk := clock.NewState(spec)
	sim := New(spec, clk)
	t := &TimingTable{
		timing:  spec.Timing,
		kernels: ks,
		fps:     make([]uint64, len(ks)),
		pairs:   pairs,
		results: make([]KernelResult, len(ks)*len(pairs)),
	}
	nphases := 0
	for _, k := range ks {
		nphases += len(k.Phases)
	}
	phases := make([]PhaseResult, nphases*len(pairs))
	for i, k := range ks {
		ck, err := sim.Compile(k)
		if err != nil {
			return nil, err
		}
		for j, p := range pairs {
			if err := clk.SetPair(p); err != nil {
				return nil, fmt.Errorf("gpu: kernel %q: %w", k.Name, err)
			}
			res := &t.results[i*len(pairs)+j]
			res.Phases, phases = phases[:0:len(k.Phases)], phases[len(k.Phases):]
			ck.evalInto(clk, res)
		}
		t.fps[i] = k.Fingerprint()
	}
	return t, nil
}

// Timing returns the timing half the table was built for.
func (t *TimingTable) Timing() *arch.Timing { return &t.timing }

// Kernels returns the table's kernel descriptors, shared with every
// other reader of the table: they must not be modified.
func (t *TimingTable) Kernels() []*KernelDesc { return t.kernels }

// Pairs returns the pairs every kernel was evaluated at, shared with
// every other reader of the table: the slice must not be modified.
func (t *TimingTable) Pairs() []clock.Pair { return t.pairs }

// KernelFingerprint returns the i-th kernel's fingerprint.
func (t *TimingTable) KernelFingerprint(i int) uint64 { return t.fps[i] }

// KernelIndex returns the index of k among the table's kernels: the same
// descriptor first, then an equal copy, matched by fingerprint. It
// reports false when the table holds neither.
func (t *TimingTable) KernelIndex(k *KernelDesc) (int, bool) {
	for i, tk := range t.kernels {
		if tk == k {
			return i, true
		}
	}
	fp := k.Fingerprint()
	for i, f := range t.fps {
		if f == fp {
			return i, true
		}
	}
	return 0, false
}

// Result returns the i-th kernel's result at pair p, or nil when the
// table was not evaluated at p. The result is shared: read it, never
// modify it.
func (t *TimingTable) Result(i int, p clock.Pair) *KernelResult {
	for j, tp := range t.pairs {
		if tp == p {
			return &t.results[i*len(t.pairs)+j]
		}
	}
	return nil
}
