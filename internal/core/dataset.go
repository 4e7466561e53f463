// Package core implements the paper's primary contribution (Section IV):
// unified statistical power and performance models for GPU-accelerated
// systems. One multiple-linear-regression model per board covers *every*
// core/memory frequency pair by scaling each performance counter with the
// frequency of its clock domain:
//
//	power    = Σ xᵢ·cᵢ·corefreq + Σ yⱼ·mⱼ·memfreq + z      (Eq. 1)
//	exectime = Σ xᵢ·cᵢ/corefreq + Σ yⱼ·mⱼ/memfreq + z      (Eq. 2)
//
// where cᵢ are core-event counters and mⱼ memory-event counters. For the
// power model the counters enter as per-second rates (Nagasaka et al.); for
// the performance model as run totals (Hong & Kim). Variables are chosen by
// forward selection maximizing adjusted R², capped at 10 (Figs. 7/8 sweep
// 5–20).
package core

import (
	"context"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
	"gpuperf/internal/counters"
	"gpuperf/internal/workloads"
)

// MaxVariables is the paper's cap on explanatory variables.
const MaxVariables = 10

// SweepMinVars and SweepMaxVars bound the Figs. 7/8 explanatory-variable
// sweep.
const (
	SweepMinVars = 5
	SweepMaxVars = 20
)

// MinRunSeconds mirrors the characterization floor (≥ 10 meter samples).
const MinRunSeconds = 0.5

// Observation is one training/evaluation row: a (benchmark, input size)
// sample measured at one frequency pair.
type Observation struct {
	Benchmark string
	Scale     float64
	Pair      clock.Pair
	CoreGHz   float64
	MemGHz    float64

	// Counters holds per-iteration counter totals collected by the
	// profiler at the default pair (the paper profiles each sample once).
	Counters []float64

	// TimeS is the measured execution time of one iteration at Pair.
	TimeS float64
	// PowerW is the measured average wall power at Pair.
	PowerW float64
}

// Dataset is the full modeling corpus of one board.
type Dataset struct {
	Board   string
	Spec    *arch.Spec
	Set     *counters.Set
	Samples int // distinct (benchmark, size) samples; the paper has 114
	Rows    []Observation

	// Fault-campaign bookkeeping, populated only under CollectOptions.Res
	// and deliberately absent from the persisted form (persist.go): Dropped
	// lists benchmarks excluded after exhausting their retry budget, and
	// Retries counts the transient-fault retries the collection absorbed.
	Dropped []DroppedBench
	Retries int
}

// RowsAtPair filters the rows measured at one frequency pair.
func (d *Dataset) RowsAtPair(p clock.Pair) []Observation {
	var out []Observation
	for _, r := range d.Rows {
		if r.Pair == p {
			out = append(out, r)
		}
	}
	return out
}

// CollectAll builds the modeling dataset for the paper's full corpus (the
// 33-benchmark, 114-sample modeling set) on one board.
func CollectAll(boardName string, seed int64) (*Dataset, error) {
	return CollectCtx(context.Background(), boardName, workloads.ModelingSet(), CollectOptions{Seed: seed, Workers: 1})
}
