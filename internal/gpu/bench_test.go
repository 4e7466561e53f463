package gpu_test

import (
	"testing"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
	"gpuperf/internal/gpu"
	"gpuperf/internal/workloads"
)

// Ledger rows for the kernel model, over the three kernels of the fleet
// workload (backprop's two, streamcluster's one) on each paper board.
// One op handles all three kernels.

func fleetKernels(b *testing.B) []*gpu.KernelDesc {
	b.Helper()
	var ks []*gpu.KernelDesc
	for _, name := range []string{"backprop", "streamcluster"} {
		ks = append(ks, workloads.ByName(name).Kernels(1)...)
	}
	return ks
}

// eachBoard runs body as one sub-benchmark per paper board.
func eachBoard(b *testing.B, body func(b *testing.B, sim *gpu.Sim, ks []*gpu.KernelDesc)) {
	ks := fleetKernels(b)
	for _, spec := range arch.AllBoards() {
		sim := gpu.New(spec, clock.NewState(spec))
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			body(b, sim, ks)
		})
	}
}

// compiledSink keeps BenchmarkCompile's result live.
var compiledSink *gpu.CompiledKernel

// BenchmarkCompile times the frequency-invariant half of the model.
func BenchmarkCompile(b *testing.B) {
	eachBoard(b, func(b *testing.B, sim *gpu.Sim, ks []*gpu.KernelDesc) {
		var err error
		for i := 0; i < b.N; i++ {
			for _, k := range ks {
				if compiledSink, err = sim.Compile(k); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkRunPairs times one compiled kernel evaluated across the
// board's whole pair lattice, the batched precompute of a sweep.
func BenchmarkRunPairs(b *testing.B) {
	eachBoard(b, func(b *testing.B, sim *gpu.Sim, ks []*gpu.KernelDesc) {
		pairs := clock.ValidPairs(sim.Spec())
		cks := make([]*gpu.CompiledKernel, len(ks))
		for i, k := range ks {
			ck, err := sim.Compile(k)
			if err != nil {
				b.Fatal(err)
			}
			cks[i] = ck
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, ck := range cks {
				if _, err := sim.RunPairs(ck, pairs); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkRunKernel times one uncached launch's simulation: compile and
// evaluate at the programmed pair.
func BenchmarkRunKernel(b *testing.B) {
	eachBoard(b, func(b *testing.B, sim *gpu.Sim, ks []*gpu.KernelDesc) {
		for i := 0; i < b.N; i++ {
			for _, k := range ks {
				if _, err := sim.RunKernel(k); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
