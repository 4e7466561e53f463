// Package workloads provides synthetic stand-ins for the 37 benchmarks of
// Table II (Rodinia, Parboil, CUDA SDK samples and basic matrix kernels).
//
// Real CUDA binaries cannot run here, so each benchmark is a deterministic
// kernel specification for the timing simulator, positioned on the
// compute↔memory spectrum the way the real application behaves: Backprop is
// compute-bound with a cache-resident working set, Streamcluster streams
// memory, Gaussian flips between regimes with frequency, BFS and MUMmerGPU
// are divergent and irregular, and so on. The characterization results of
// Section III depend only on these positions, not on the actual arithmetic.
//
// Each benchmark also carries the input-size scales used to build the
// paper's 114 modeling samples (Section IV-A), and flags recording whether
// it appears in Table IV and in the modeling set (the paper excludes
// backprop, mummergpu, pathfinder and bfs from modeling because the CUDA
// profiler failed on them).
package workloads

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"gpuperf/internal/gpu"
)

// Suite identifies the benchmark suite a workload belongs to.
type Suite int

const (
	// Rodinia is the Rodinia heterogeneous benchmark suite.
	Rodinia Suite = iota
	// Parboil is the UIUC Parboil suite.
	Parboil
	// CUDASDK is the NVIDIA CUDA SDK sample set.
	CUDASDK
	// Matrix is the paper's basic matrix-operation set.
	Matrix
)

// String returns the suite name as the paper prints it.
func (s Suite) String() string {
	switch s {
	case Rodinia:
		return "Rodinia"
	case Parboil:
		return "Parboil"
	case CUDASDK:
		return "CUDA SDK"
	case Matrix:
		return "Matrix"
	default:
		return fmt.Sprintf("Suite(%d)", int(s))
	}
}

// Benchmark is one synthetic workload.
type Benchmark struct {
	Name  string
	Suite Suite

	// InTable4 marks the 33 benchmarks whose best frequency pair the
	// paper reports in Table IV.
	InTable4 bool

	// Modeled marks benchmarks included in the Section IV regression set.
	Modeled bool

	// Sizes are the input scales used to build modeling samples.
	Sizes []float64

	// HostFixed and HostPerScale parameterize the host-side time per
	// kernel-sequence iteration (setup, cudaMemcpy, driver overhead):
	// HostGap(scale) = HostFixed + HostPerScale·scale, in seconds. Zero
	// values fall back to a deterministic per-benchmark default, since
	// every real application has some host component.
	HostFixed    float64
	HostPerScale float64

	// build constructs the kernel sequence for one input scale.
	build func(scale float64) []*gpu.KernelDesc
}

// HostGap returns the host-side seconds per iteration at an input scale.
func (b *Benchmark) HostGap(scale float64) float64 {
	if scale <= 0 {
		scale = 1
	}
	fixed, perScale := b.HostFixed, b.HostPerScale
	if fixed == 0 && perScale == 0 {
		// Deterministic defaults: host fractions across real suites vary
		// widely; spread the fixed part over [15 ms, 400 ms] and the
		// size-dependent (memcpy) part over [4 ms, 150 ms] per unit scale.
		h := fnv.New32a()
		_, _ = h.Write([]byte(b.Name)) // fnv: hash.Hash.Write never errors
		_, _ = h.Write([]byte("host"))
		v := h.Sum32()
		fixed = 0.015 + 0.385*float64(v%997)/996
		perScale = 0.004 + 0.146*float64((v/997)%997)/996
	}
	return fixed + perScale*scale
}

// Kernels builds the benchmark's kernel launch sequence at an input scale.
// Scale 1 is the paper's "maximum feasible input"; modeling samples use the
// scales in Sizes.
func (b *Benchmark) Kernels(scale float64) []*gpu.KernelDesc {
	if scale <= 0 {
		scale = 1
	}
	return b.build(scale)
}

// ws scales a nominal working set with input size: larger inputs overflow
// caches sublinearly (blocks partition the data, but cross-block reuse
// distances grow), modeled as base·scale^0.7.
func ws(base int, scale float64) float64 {
	if scale <= 0 {
		scale = 1
	}
	return float64(base) * math.Pow(scale, 0.7)
}

// blocks scales a base block count, keeping at least one block.
func blocks(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 1 {
		return 1
	}
	return n
}

// kern assembles a single-phase kernel. Each kernel gets a deterministic
// data-dependent switching-activity factor derived from its name: real
// kernels differ in operand toggling in ways performance counters cannot
// observe, and this heterogeneity is a large part of why the paper's power
// model shows low R̄² despite small absolute errors.
func kern(name string, nblocks, tpb, regs, shared int, ph gpu.PhaseDesc) *gpu.KernelDesc {
	ph.Name = "main"
	if ph.ActivityFactor == 0 {
		ph.ActivityFactor = activityFactor(name, nblocks)
	}
	return &gpu.KernelDesc{
		Name:            name,
		Blocks:          nblocks,
		ThreadsPerBlock: tpb,
		RegsPerThread:   regs,
		SharedPerBlock:  shared,
		Phases:          []gpu.PhaseDesc{ph},
	}
}

// activityFactor spreads kernels over [0.62, 1.47] deterministically. The
// grid size enters the hash because operand toggling genuinely varies with
// the input data, not just the kernel code.
func activityFactor(name string, nblocks int) float64 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(name)) // fnv: hash.Hash.Write never errors
	_, _ = h.Write([]byte{byte(nblocks), byte(nblocks >> 8)})
	return 0.62 + 0.85*float64(h.Sum32()%1000)/999
}

var registry []*Benchmark

func register(b *Benchmark) {
	registry = append(registry, b)
}

// All returns every benchmark of Table II in a stable order: suite order as
// in the paper, then name order within the suite.
func All() []*Benchmark {
	out := append([]*Benchmark(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Suite != out[j].Suite {
			return out[i].Suite < out[j].Suite
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ByName finds a benchmark by its exact name, or nil.
func ByName(name string) *Benchmark {
	for _, b := range registry {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Table4 returns the 33 benchmarks of Table IV in paper order.
func Table4() []*Benchmark {
	var out []*Benchmark
	for _, b := range All() {
		if b.InTable4 {
			out = append(out, b)
		}
	}
	return out
}

// ModelingSet returns the benchmarks used to train the Section IV models.
func ModelingSet() []*Benchmark {
	var out []*Benchmark
	for _, b := range All() {
		if b.Modeled {
			out = append(out, b)
		}
	}
	return out
}

// Modeling input scales. The paper's execution times span milliseconds to
// tens of seconds; the wide scale range reproduces that dynamic range,
// which is what makes the performance model's R̄² high while its percentage
// errors stay large (Section IV-B).
var (
	sizes3 = []float64{0.25, 1, 4}
	sizes4 = []float64{0.25, 1, 4, 16}
)
