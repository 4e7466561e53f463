// Package characterize implements the Section III experiments: sweep every
// benchmark over every BIOS-exposed frequency pair on every board, measure
// execution time and wall energy with the simulated power meter, and derive
// the per-benchmark best-efficiency pair (Table IV), the improvement over
// the default (H-H) pair (Fig. 4) and the performance/power-efficiency
// curves of Figs. 1–3.
package characterize

import (
	"context"
	"fmt"
	"hash/fnv"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
	"gpuperf/internal/driver"
	"gpuperf/internal/fault"
	"gpuperf/internal/validity"
	"gpuperf/internal/workloads"
)

// MinRunSeconds mirrors the paper's floor: kernels are repeated until the
// run covers 500 ms so the meter sees at least 10 samples.
const MinRunSeconds = 0.5

// PairResult is one (benchmark, board, frequency pair) measurement.
type PairResult struct {
	Pair          clock.Pair
	TimePerIter   float64 // seconds per kernel-sequence iteration
	AvgWatts      float64 // measured wall power
	EnergyPerIter float64 // joules per iteration

	// Fault-campaign bookkeeping (zero values on a clean sweep). A
	// quarantined cell repeatedly failed past the retry budget and holds
	// no measurement; FailPoint names the fault that exhausted it.
	// Confidence is the measurement's genuine-sample fraction (0 for
	// quarantined cells, 1 for clean ones — see meter.Measurement) and
	// Interpolated counts its reconstructed samples.
	Quarantined  bool        `json:",omitempty"`
	FailPoint    fault.Point `json:",omitempty"`
	Retries      int         `json:",omitempty"`
	Confidence   float64     `json:",omitempty"`
	Interpolated int         `json:",omitempty"`

	// Verdict is the run-level triage classification (validity.ClassifyRun
	// over the bookkeeping above). Every construction site classifies, so
	// a zero Verdict marks a cell that bypassed the triage policy.
	Verdict validity.Verdict `json:"verdict"`
}

// Classify maps the cell's fault bookkeeping onto its run verdict — a
// pure function of the recorded facts, so journal migration can re-derive
// verdicts for cells written before they existed.
func (p *PairResult) Classify() validity.Verdict {
	return validity.ClassifyRun(validity.RunFacts{
		Quarantined:  p.Quarantined,
		FailPoint:    string(p.FailPoint),
		Retries:      p.Retries,
		Confidence:   p.Confidence,
		Interpolated: p.Interpolated,
	})
}

// Efficiency returns the paper's power-efficiency metric, the reciprocal of
// energy consumption. A quarantined cell has no measurement and reports 0.
func (p *PairResult) Efficiency() float64 {
	if p.Quarantined || p.EnergyPerIter <= 0 {
		return 0
	}
	return 1 / p.EnergyPerIter
}

// BenchResult is one benchmark swept over all pairs of one board.
type BenchResult struct {
	Benchmark string
	Board     string
	Pairs     []PairResult // in Table III row order (H-H first)
}

// ByPair finds the measurement for a pair, or nil.
func (r *BenchResult) ByPair(p clock.Pair) *PairResult {
	for i := range r.Pairs {
		if r.Pairs[i].Pair == p {
			return &r.Pairs[i]
		}
	}
	return nil
}

// Best returns the pair with maximum power efficiency (minimum energy).
// Ties resolve to the earlier Table III row, which puts (H-H) first —
// matching the paper's convention of reporting the default on a tie.
// Quarantined cells hold no measurement and never win; a sweep whose every
// cell is quarantined has no best pair and returns nil.
func (r *BenchResult) Best() *PairResult {
	var best *PairResult
	for i := range r.Pairs {
		if r.Pairs[i].Quarantined {
			continue
		}
		if best == nil || r.Pairs[i].Efficiency() > best.Efficiency() {
			best = &r.Pairs[i]
		}
	}
	return best
}

// Default returns the (H-H) measurement, or nil when that cell was
// quarantined — normalized metrics have no baseline then.
func (r *BenchResult) Default() *PairResult {
	pr := r.ByPair(clock.DefaultPair())
	if pr != nil && pr.Quarantined {
		return nil
	}
	return pr
}

// QuarantinedCells reports how many of the sweep's cells were quarantined.
func (r *BenchResult) QuarantinedCells() int {
	n := 0
	for i := range r.Pairs {
		if r.Pairs[i].Quarantined {
			n++
		}
	}
	return n
}

// ImprovementPct returns the Fig. 4 metric: the power-efficiency gain of
// the best pair over the default pair, in percent.
func (r *BenchResult) ImprovementPct() float64 {
	def, best := r.Default(), r.Best()
	if def == nil || best == nil || def.Efficiency() <= 0 {
		return 0
	}
	return (best.Efficiency()/def.Efficiency() - 1) * 100
}

// PerfLossPct returns the performance loss of the best pair relative to the
// default pair, in percent (the paper quotes 2%, 2%, 0.1% and 30% for
// Backprop). Performance is 1/time, so the loss is 1 − t_default/t_best.
func (r *BenchResult) PerfLossPct() float64 {
	def, best := r.Default(), r.Best()
	if def == nil || best == nil || best.TimePerIter == 0 {
		return 0
	}
	return (1 - def.TimePerIter/best.TimePerIter) * 100
}

// SweepBenchmark measures one benchmark at every valid frequency pair of
// the given device. The device is left at the default pair.
//
// Each pair's measurement draws its noise from a stream scoped to the
// pair (SeedScoped), so a cell's result depends only on the device's base
// seed and the pair — not on how many cells ran before it. The resilient
// sweep relies on exactly this to make retried and checkpoint-resumed
// runs byte-identical to clean ones.
//
// The sweep is fault-free: one attempt per pair, with any fault injector
// the device carries detached. Fault campaigns go through Sweep.
func SweepBenchmark(dev *driver.Device, b *workloads.Benchmark) (*BenchResult, error) {
	return SweepBenchmarkCtx(context.Background(), dev, b)
}

// SweepBenchmarkCtx is SweepBenchmark with cooperative cancellation: the
// context is checked before each frequency-pair cell, so a cancelled sweep
// stops at a cell boundary and returns the cause wrapped in the error.
// It is the engine's own per-device loop run with zero SweepOptions (a
// nil Resilience) on the caller's device and seed, so on a device seeded
// sweepSeed(seed, benchmark) it returns exactly what Sweep returns. A
// caching device gets a one-off timing table of its own.
func SweepBenchmarkCtx(ctx context.Context, dev *driver.Device, b *workloads.Benchmark) (*BenchResult, error) {
	board := dev.Spec().Name
	return sweepDevice(ctx, dev, board, board+"|"+b.Name, b, &SweepOptions{},
		driver.Harness{Cancelled: cancelled}, nil, nil)
}

// pairResult builds one sweep cell from a metered run after the given
// number of retries. A nil run is a cell quarantined after exhausting its
// retry budget on failPt.
func pairResult(p clock.Pair, rr *driver.RunResult, retries int, failPt fault.Point) PairResult {
	out := PairResult{Pair: p, Quarantined: rr == nil, FailPoint: failPt, Retries: retries}
	if rr != nil {
		out.TimePerIter = rr.TimePerIteration()
		out.AvgWatts = rr.Measurement.AvgWatts
		out.EnergyPerIter = rr.EnergyPerIteration()
		out.Interpolated = rr.Measurement.Interpolated
		out.Confidence = rr.Measurement.Confidence()
	}
	out.Verdict = out.Classify()
	return out
}

// sweepSeed derives one benchmark's independent noise seed: seed ⊕
// FNV-1a(benchmark name), the same scheme core.CollectCtx uses. Independent
// per-benchmark streams are what make sequential and parallel sweeps
// byte-identical — no benchmark's noise depends on which benchmarks ran
// before it on the same device.
func sweepSeed(seed int64, benchName string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(benchName)) // fnv: hash.Hash.Write never errors
	return seed ^ int64(h.Sum64())
}

// cancelled wraps a context's cancellation cause in the package's error
// shape; errors.Is(err, context.Canceled) (or the deadline sentinel, or a
// custom cause) keeps working through the wrap.
func cancelled(ctx context.Context) error {
	return fmt.Errorf("characterize: sweep cancelled: %w", context.Cause(ctx))
}

// MeanImprovementPct averages the Fig. 4 metric over a board's results.
func MeanImprovementPct(results []*BenchResult) float64 {
	if len(results) == 0 {
		return 0
	}
	var s float64
	for _, r := range results {
		s += r.ImprovementPct()
	}
	return s / float64(len(results))
}

// CurvePoint is one point of a Fig. 1–3 panel.
type CurvePoint struct {
	CoreMHz    float64
	Perf       float64 // 1 / time-per-iteration, normalized to (H-H)
	Efficiency float64 // 1 / energy-per-iteration, normalized to (H-H)
}

// Curve is one line of a Fig. 1–3 panel: one memory level, swept over the
// valid core levels.
type Curve struct {
	MemLevel arch.FreqLevel
	MemMHz   float64
	Points   []CurvePoint // ascending core frequency
}

// Curves reshapes a sweep into the Figs. 1–3 form: one line per memory
// frequency, the x-axis being the core frequency, both metrics normalized
// to the default (H-H) measurement.
func Curves(r *BenchResult, spec *arch.Spec) []Curve {
	def := r.Default()
	if def == nil {
		return nil
	}
	var out []Curve
	for _, mem := range arch.Levels() {
		c := Curve{MemLevel: mem, MemMHz: spec.MemFreqMHz(mem)}
		for _, core := range arch.Levels() {
			pr := r.ByPair(clock.Pair{Core: core, Mem: mem})
			if pr == nil || pr.Quarantined {
				continue
			}
			c.Points = append(c.Points, CurvePoint{
				CoreMHz:    spec.CoreFreqMHz(core),
				Perf:       def.TimePerIter / pr.TimePerIter,
				Efficiency: def.EnergyPerIter / pr.EnergyPerIter,
			})
		}
		if len(c.Points) > 0 {
			out = append(out, c)
		}
	}
	return out
}
