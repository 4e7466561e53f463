// Package gpuperf is a simulation-backed reproduction of "Power and
// Performance Characterization and Modeling of GPU-Accelerated Systems"
// (Abe, Sasaki, Kato, Inoue, Edahiro, Peres — IPDPS Workshops 2014).
//
// It provides, end to end, the apparatus the paper built on real hardware:
//
//   - four simulated NVIDIA boards spanning three architecture generations
//     (GTX 285, GTX 460, GTX 480, GTX 680 — Table I), booted from synthetic
//     VBIOS images whose performance tables carry the DVFS levels;
//   - independent core/memory frequency scaling with implicit voltage
//     scaling, programmed by patching the VBIOS boot levels (Section II-B);
//   - a simulated Yokogawa WT1600 wall-power meter sampling every 50 ms;
//   - the 37 benchmarks of Table II as synthetic kernel specifications;
//   - the Section III characterization harness (best-energy frequency
//     pairs, Table IV and Fig. 4, the Figs. 1–3 curves); and
//   - the paper's primary contribution: unified statistical power and
//     performance models (Eq. 1 and Eq. 2) trained by forward selection
//     over per-architecture performance-counter sets (Section IV).
//
// The zero-dependency simulator makes every experiment in the paper
// reproducible on a laptop in seconds. See DESIGN.md for the substitutions
// made for the hardware apparatus and EXPERIMENTS.md for paper-vs-measured
// results of every table and figure.
//
// # Quick start
//
// A Session owns the campaign stack — seed, worker pool, fault policy,
// checkpoint journal, observability — and exposes the context-aware
// campaign methods:
//
//	s, err := gpuperf.OpenSession(gpuperf.WithBoards("GTX 680"))
//	if err != nil { ... }
//	defer s.Close()
//	results, err := s.Sweep(context.Background(), gpuperf.Table4Benchmarks())
//
// For single-device experiments the device API remains:
//
//	dev, err := gpuperf.OpenDevice("GTX 680")
//	if err != nil { ... }
//	run, err := gpuperf.RunBenchmark(dev, "backprop", 1.0)
//	fmt.Printf("%.1f ms, %.0f W\n", run.TimePerIterS*1e3, run.AvgWatts)
//
//	dev.SetClocks(gpuperf.MustPair("M-L")) // patches the VBIOS and reboots
//	run2, _ := gpuperf.RunBenchmark(dev, "backprop", 1.0)
//	fmt.Printf("energy saving: %.0f%%\n", (1-run2.EnergyPerIterJ/run.EnergyPerIterJ)*100)
package gpuperf

import (
	"context"
	"fmt"
	"io"

	"gpuperf/internal/arch"
	"gpuperf/internal/characterize"
	"gpuperf/internal/clock"
	"gpuperf/internal/core"
	"gpuperf/internal/driver"
	"gpuperf/internal/governor"
	"gpuperf/internal/meter"
	"gpuperf/internal/sched"
	"gpuperf/internal/thermal"
	"gpuperf/internal/workloads"
)

// Re-exported types. Aliases keep the internal packages as the single
// implementation while giving users one import.
type (
	// Device is a booted simulated GPU (see SetClocks, Launch, RunMetered).
	Device = driver.Device
	// Pair is a (core, memory) frequency-level pair like (H-L).
	Pair = clock.Pair
	// FreqLevel is one of the vendor performance levels L, M, H.
	FreqLevel = arch.FreqLevel
	// BoardSpec is the static description of a board (Table I).
	BoardSpec = arch.Spec
	// Benchmark is one Table II workload.
	Benchmark = workloads.Benchmark
	// SweepResult is a benchmark swept over every valid frequency pair.
	SweepResult = characterize.BenchResult
	// Dataset is a Section IV modeling corpus for one board.
	Dataset = core.Dataset
	// Model is a trained unified power or performance model (Eq. 1/2).
	Model = core.Model
	// Observation is one modeling row: a (benchmark, size) sample measured
	// at one frequency pair.
	Observation = core.Observation
	// Governor is the model-driven online DVFS manager (the paper's
	// motivating application).
	Governor = governor.Governor
	// GovernorPolicy configures what a Governor optimizes.
	GovernorPolicy = governor.Policy
	// Objective selects what a pair search minimizes (energy, EDP, …).
	Objective = characterize.Objective
)

// Frequency-pair search objectives, re-exported.
const (
	MinEnergy = characterize.MinEnergy
	MinEDP    = characterize.MinEDP
	MinED2P   = characterize.MinED2P
	MinTime   = characterize.MinTime
)

// Frequency levels, re-exported.
const (
	Low  = arch.FreqLow
	Mid  = arch.FreqMid
	High = arch.FreqHigh
)

// Model kinds, re-exported.
const (
	PowerModel = core.Power
	TimeModel  = core.Time
)

// Boards lists the four Table I board names in the paper's order.
func Boards() []string {
	var out []string
	for _, s := range arch.AllBoards() {
		out = append(out, s.Name)
	}
	return out
}

// Board returns the spec of a Table I board, or nil if unknown.
func Board(name string) *BoardSpec { return arch.BoardByName(name) }

// OpenDevice boots a simulated device for the named board at the default
// (H-H) clocks.
func OpenDevice(name string) (*Device, error) { return driver.OpenBoard(name) }

// DefaultPair returns the boot configuration (H-H).
func DefaultPair() Pair { return clock.DefaultPair() }

// ParsePair parses the paper's "(H-L)" notation (parentheses optional).
func ParsePair(s string) (Pair, error) { return clock.ParsePair(s) }

// MustPair is ParsePair for constant strings; it panics on bad input.
func MustPair(s string) Pair {
	p, err := clock.ParsePair(s)
	if err != nil {
		panic(err)
	}
	return p
}

// ValidPairs enumerates the frequency pairs a board's BIOS exposes
// (Table III), default (H-H) first.
func ValidPairs(spec *BoardSpec) []Pair { return clock.ValidPairs(spec) }

// Benchmarks lists all Table II benchmark names.
func Benchmarks() []string {
	var out []string
	for _, b := range workloads.All() {
		out = append(out, b.Name)
	}
	return out
}

// BenchmarkByName returns one Table II benchmark, or nil.
func BenchmarkByName(name string) *Benchmark { return workloads.ByName(name) }

// RunSummary reports one metered benchmark run.
type RunSummary struct {
	Benchmark      string
	Board          string
	Pair           Pair
	TimePerIterS   float64 // execution time per iteration, seconds
	AvgWatts       float64 // measured wall power
	EnergyPerIterJ float64 // measured wall energy per iteration, joules
	Iterations     int
}

// RunBenchmark runs one Table II benchmark on a device at its current
// clocks, metered like the paper's runs (stretched to ≥ 500 ms).
func RunBenchmark(dev *Device, benchmark string, scale float64) (*RunSummary, error) {
	b := workloads.ByName(benchmark)
	if b == nil {
		return nil, fmt.Errorf("gpuperf: unknown benchmark %q", benchmark)
	}
	rr, err := dev.RunMetered(b.Name, b.Kernels(scale), b.HostGap(scale), characterize.MinRunSeconds)
	if err != nil {
		return nil, err
	}
	return &RunSummary{
		Benchmark:      b.Name,
		Board:          dev.Spec().Name,
		Pair:           dev.Clocks(),
		TimePerIterS:   rr.TimePerIteration(),
		AvgWatts:       rr.Measurement.AvgWatts,
		EnergyPerIterJ: rr.EnergyPerIteration(),
		Iterations:     rr.Iterations,
	}, nil
}

// Sweep measures one benchmark at every valid frequency pair of a device
// (the Section III experiment). The device is left at (H-H). The sweep is
// fault-free — one attempt per pair, with any fault injector the device
// carries detached; fault campaigns run through Session.Sweep.
func Sweep(dev *Device, benchmark string) (*SweepResult, error) {
	b := workloads.ByName(benchmark)
	if b == nil {
		return nil, fmt.Errorf("gpuperf: unknown benchmark %q", benchmark)
	}
	return characterize.SweepBenchmark(dev, b)
}

// BestPair returns the minimum-energy frequency pair for a benchmark on a
// device, with its efficiency improvement over (H-H) in percent.
func BestPair(dev *Device, benchmark string) (Pair, float64, error) {
	r, err := Sweep(dev, benchmark)
	if err != nil {
		return Pair{}, 0, err
	}
	return r.Best().Pair, r.ImprovementPct(), nil
}

// CollectDataset gathers the Section IV modeling corpus (the 33-benchmark,
// 114-sample set) for one board. seed drives the measurement noise.
func CollectDataset(board string, seed int64) (*Dataset, error) {
	return core.CollectAll(board, seed)
}

// CollectDatasetParallel is CollectDataset with benchmarks gathered by a
// worker pool (one simulated device per worker). It produces an identical
// dataset to CollectDataset; only wall-clock changes.
func CollectDatasetParallel(board string, seed int64, workers int) (*Dataset, error) {
	return core.CollectCtx(context.Background(), board, workloads.ModelingSet(),
		core.CollectOptions{Seed: seed, Workers: workers})
}

// CollectBenchmarks gathers a modeling corpus restricted to the named
// benchmarks — useful for train/test splits.
func CollectBenchmarks(board string, names []string, seed int64) (*Dataset, error) {
	var benches []*workloads.Benchmark
	for _, n := range names {
		b := workloads.ByName(n)
		if b == nil {
			return nil, fmt.Errorf("gpuperf: unknown benchmark %q", n)
		}
		benches = append(benches, b)
	}
	return core.CollectCtx(context.Background(), board, benches,
		core.CollectOptions{Seed: seed, Workers: 1})
}

// TrainModel fits the unified power (Eq. 1) or performance (Eq. 2) model
// over a dataset with the paper's 10-variable forward selection.
func TrainModel(ds *Dataset, kind core.Kind) (*Model, error) {
	return core.Train(ds, kind, core.MaxVariables)
}

// PredictAll evaluates a model over the dataset it was (or wasn't) trained
// on, returning the mean absolute percentage error.
func PredictAll(m *Model, ds *Dataset) float64 {
	return m.Evaluate(ds.Rows).MeanAbsPct
}

// SaveModel serializes a trained model as JSON (train offline, deploy the
// governor without the dataset).
func SaveModel(m *Model, w io.Writer) error { return m.Save(w) }

// LoadModel deserializes a model written by SaveModel.
func LoadModel(r io.Reader) (*Model, error) { return core.ReadModel(r) }

// SaveDataset serializes a modeling corpus as JSON.
func SaveDataset(ds *Dataset, w io.Writer) error { return ds.Save(w) }

// LoadDataset deserializes a corpus written by SaveDataset.
func LoadDataset(r io.Reader) (*Dataset, error) { return core.ReadDataset(r) }

// CrossValidate runs leave-one-benchmark-out cross-validation: every
// benchmark is predicted by a model trained on all the others — the error
// a deployed predictor faces on unseen workloads.
func CrossValidate(ds *Dataset, kind core.Kind) (*core.CVResult, error) {
	return core.CrossValidate(ds, kind, core.MaxVariables)
}

// ThermalParams configures the thermal extension (cooler resistance,
// capacitance, throttle point, leakage coefficient).
type ThermalParams = thermal.Params

// DefaultThermalParams returns a dual-slot-cooler configuration for a board
// (its leakage seeds the temperature-dependent surcharge).
func DefaultThermalParams(spec *BoardSpec) ThermalParams {
	return thermal.DefaultParams(spec.CoreLeakWatts + spec.MemLeakWatts)
}

// SimulateThermal integrates the RC thermal model over a run's power trace
// (see Device.RunMetered), returning peak temperature, leakage surcharge
// and throttling, if any.
func SimulateThermal(trace meter.Trace, p ThermalParams, startC float64) (*thermal.Result, error) {
	return thermal.Simulate(trace, p, startC)
}

// BatchPlan is a scheduled batch of jobs with per-job frequency pairs.
type BatchPlan = sched.Plan

// PlanBatchUnderEnergy sweeps each named benchmark on the device, then
// chooses per-job frequency pairs minimizing total batch time under a
// total energy budget in joules (0 disables the budget) — the
// power-constrained throughput optimization of the paper's related work,
// built on measured operating points.
func PlanBatchUnderEnergy(dev *Device, benchmarks []string, budgetJ float64) (*BatchPlan, error) {
	jobs, err := sweepJobs(dev, benchmarks)
	if err != nil {
		return nil, err
	}
	return sched.MinimizeTime(jobs, budgetJ)
}

// PlanBatchUnderDeadline is the symmetric problem: minimize total energy
// subject to a total-time deadline in seconds.
func PlanBatchUnderDeadline(dev *Device, benchmarks []string, deadlineS float64) (*BatchPlan, error) {
	jobs, err := sweepJobs(dev, benchmarks)
	if err != nil {
		return nil, err
	}
	return sched.MinimizeEnergy(jobs, deadlineS)
}

// sweepJobs sweeps each named benchmark on the device into a scheduler
// job whose options are its measured operating points.
func sweepJobs(dev *Device, benchmarks []string) ([]sched.Job, error) {
	var jobs []sched.Job
	for _, name := range benchmarks {
		sw, err := Sweep(dev, name)
		if err != nil {
			return nil, err
		}
		j := sched.Job{Name: name}
		for _, pr := range sw.Pairs {
			j.Options = append(j.Options, sched.Option{
				Pair: pr.Pair, TimeS: pr.TimePerIter, EnergyJ: pr.EnergyPerIter,
			})
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// NewGovernor assembles the online DVFS governor from a device and its two
// trained unified models.
func NewGovernor(dev *Device, powerModel, timeModel *Model, policy GovernorPolicy) (*Governor, error) {
	return governor.New(dev, powerModel, timeModel, policy)
}

// RunTuned profiles a benchmark once, lets the governor choose a frequency
// pair under its policy, and runs the benchmark there, reporting predicted
// and measured power/time.
func RunTuned(g *Governor, benchmark string, scale float64) (*governor.Outcome, error) {
	b := workloads.ByName(benchmark)
	if b == nil {
		return nil, fmt.Errorf("gpuperf: unknown benchmark %q", benchmark)
	}
	return g.RunTuned(b.Name, b.Kernels(scale), b.HostGap(scale))
}
