package characterize

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
	"gpuperf/internal/driver"
	"gpuperf/internal/fault"
	"gpuperf/internal/gpu"
	"gpuperf/internal/obs"
	"gpuperf/internal/workloads"
)

// Every sweep runs inside the measurement harness (driver.Harness): every
// boot, clock set and metered run may fail transiently under a fault
// campaign, so each one runs inside a bounded retry loop with backoff, a
// watchdog kills hung launches and reboots the device, and a frequency
// pair that exhausts its retry budget is quarantined — its Table IV cell
// renders "n/a (unstable)" instead of sinking the whole campaign. Without
// a fault campaign the same loops make one fault-free attempt.
//
// Determinism: each cell's measurement noise comes from a stream scoped to
// the cell (SeedScoped) and each attempt's faults from a stream keyed by
// (campaign seed, cell scope, attempt). A retried cell therefore replays
// the same measurement it would have produced on the first try, and a run
// under an all-transient profile with enough retries is byte-identical to
// a fault-free run.

// SweepOptions configures a resilient sweep campaign.
type SweepOptions struct {
	Seed    int64
	Workers int
	// Res carries the fault campaign and the retry/watchdog policy. nil
	// behaves like a fault-free harness with a single attempt per cell.
	Res *fault.Resilience
	// Journal, when non-nil, checkpoints completed cells and replays them
	// on resume.
	Journal *Journal
	// Obs, when non-nil, receives the campaign's instrumentation: one
	// virtual-time track per (board, benchmark) job plus the sweep, fault,
	// driver and meter counters. The recorded artifacts are a pure function
	// of the seed — independent of Workers.
	Obs *obs.Recorder
	// TrackPrefix namespaces this phase's track names ("fig", "table4");
	// empty means "sweep".
	TrackPrefix string
	// Rep is the repetition index within a repetition cohort. Repetition 0
	// is the campaign itself — identical scopes, track names and journal
	// keys to a single-run campaign — while later repetitions suffix their
	// fault scopes, journal keys and tracks so each repetition draws
	// independent fault and noise streams. Callers normally go through
	// SweepReps, which also derives the per-repetition seed.
	Rep int
	// Fanout, when non-nil, receives live scope-tagged power samples from
	// every metered run (see driver.PowerFanout). Live-only: attaching it
	// never changes measurements or artifacts. It is called from every
	// sweep worker, so it must be safe for concurrent use.
	Fanout driver.PowerFanout
	// Sink, when non-nil, receives the sweep as a row stream: one
	// ConsumeRow per resolved cell — measured, replayed from the journal
	// (Row.Replayed) or quarantined — and one ConsumeBench per completed
	// (board, benchmark) job. Called from every sweep worker; must be safe
	// for concurrent use, and must not mutate a row's result. This is how
	// the fleet aggregator folds a campaign without materializing it and
	// how a session counts its progress (session.Progress).
	Sink RowSink
	// Boot, when non-nil, replaces the device-open path; the injector may
	// be nil on a fault-free attempt. The fleet orchestrator boots
	// jittered per-device specs through this seam. Defaults to
	// driver.OpenBoardWithFaults. Each call must return a fresh device:
	// the engine owns it and releases it when its job ends.
	Boot func(boardName string, in *fault.Injector) (*driver.Device, error)
	// SpecOf, when non-nil, resolves a board name to its spec — the
	// quarantine path needs the pair grid of a device that never booted.
	// Defaults to arch.BoardByName.
	SpecOf func(boardName string) *arch.Spec
}

func (o *SweepOptions) specOf(boardName string) *arch.Spec {
	if o.SpecOf != nil {
		return o.SpecOf(boardName)
	}
	return arch.BoardByName(boardName)
}

// emitCell streams one resolved cell to the sink — the single emission
// point every resolution path (measure, journal replay, boot quarantine)
// goes through.
func (o *SweepOptions) emitCell(board, bench string, pr PairResult, replayed bool) {
	if o.Sink != nil {
		o.Sink.ConsumeRow(Row{Board: board, Bench: bench, Rep: o.Rep, Replayed: replayed, Result: pr})
	}
}

// Sweep is the unified sweep engine: every sequential, parallel and
// resilient sweep variant is a configuration of this one implementation.
// It sweeps the benches on every named board through one shared worker
// pool over (board, benchmark) jobs; results are indexed
// [board][benchmark] and are a pure function of the seed — identical at
// any worker count (1 is the bit-exact sequential reference), with or
// without a fault campaign, journal or recorder attached.
//
// The context is checked at every cell boundary (each (board, benchmark,
// pair) measurement) and before every retry attempt: a cancel aborts the
// campaign within one in-flight cell per worker, returns the cause
// wrapped in the error, and leaves the checkpoint journal resumable — a
// rerun with the same journal replays the completed cells and measures
// only the rest, byte-identical to an uninterrupted run.
func Sweep(ctx context.Context, boardNames []string, benches []*workloads.Benchmark, opts SweepOptions) (map[string][]*BenchResult, error) {
	nb := len(benches)
	if len(boardNames)*nb == 0 {
		return map[string][]*BenchResult{}, nil
	}
	// Sweep is one fold over the row stream: collect every completed
	// BenchResult into its [board][benchmark] slot, chaining to any sink
	// the caller attached.
	fold := newResultFold(boardNames, benches, opts.Sink)
	opts.Sink = fold
	if err := SweepStream(ctx, boardNames, benches, opts); err != nil {
		return nil, err
	}
	return fold.results(boardNames, nb), nil
}

// prepareSweepObs wires the recorder through the resilience policy before
// the pool starts (Observe must not race with workers). opts is the
// engine's private copy, so defaulting Res here never leaks to callers.
func prepareSweepObs(opts *SweepOptions, jobs int) {
	if opts.Obs == nil {
		return
	}
	if opts.Res == nil {
		opts.Res = &fault.Resilience{}
	}
	if opts.Res.Obs == nil {
		opts.Res.Obs = opts.Obs
	}
	opts.Res.Observe()
	w := opts.Workers
	if w < 1 {
		w = 1
	}
	if w > jobs {
		w = jobs
	}
	observePool(opts.Obs, w)
}

// quarantineAll marks every valid pair of the board as quarantined — the
// degradation shape of a benchmark whose device never booted.
func quarantineAll(boardName, bench string, spec *arch.Spec, pt fault.Point, retries int) *BenchResult {
	out := &BenchResult{Benchmark: bench, Board: boardName}
	if spec == nil {
		return out
	}
	for _, p := range clock.ValidPairs(spec) {
		out.Pairs = append(out.Pairs, pairResult(p, nil, retries, pt))
	}
	return out
}

// sweepBenchR measures one benchmark on one board under the fault
// harness: it boots through the harness's boot-retry loop (quarantining
// every cell if the boot never succeeds), wires and seeds the device, and
// hands it to the per-device loop.
func sweepBenchR(ctx context.Context, boardName string, b *workloads.Benchmark, opts SweepOptions, tables *timingTables) (*BenchResult, error) {
	scope := boardName + "|" + b.Name
	if opts.Rep > 0 {
		// Later repetitions draw independent fault streams; repetition 0
		// keeps the exact scope of a single-run campaign.
		scope += "|rep" + strconv.Itoa(opts.Rep)
	}
	so := newSweepObs(opts.Obs, boardName)
	track := opts.Obs.Track(opts.trackName(boardName, b.Name))
	span := track.Begin("sweep "+b.Name, obs.Arg{Key: "board", Value: boardName})
	defer span.End()
	h := driver.Harness{Res: opts.Res, Track: track, Cancelled: cancelled}
	boot := opts.Boot
	if boot == nil {
		boot = driver.OpenBoardWithFaults
	}
	dev, attempt, failPt, err := h.Boot(ctx, scope, func(in *fault.Injector) (*driver.Device, error) {
		return boot(boardName, in)
	})
	if err != nil {
		return nil, err
	}
	if dev == nil {
		out := quarantineAll(boardName, b.Name, opts.specOf(boardName), failPt, attempt)
		if so != nil {
			so.quarantined.With(string(failPt)).Add(int64(len(out.Pairs)))
			track.Instant("quarantined (boot failed)", obs.Arg{Key: "point", Value: string(failPt)})
		}
		for _, pr := range out.Pairs {
			opts.emitCell(boardName, b.Name, pr, false)
		}
		return out, nil
	}
	if opts.Obs != nil {
		dev.Observe(opts.Obs, track)
	}
	dev.SetPowerFanout(opts.Fanout)
	dev.Seed(sweepSeed(opts.Seed, b.Name))
	out, err := sweepDevice(ctx, dev, boardName, scope, b, &opts, h, so, tables)
	dev.Release() // the engine booted it and nothing keeps it past the job
	if err != nil {
		return nil, err
	}
	if so != nil {
		so.simUS.Add(track.Now())
	}
	return out, nil
}

// sweepDevice is the per-device sweep loop every sweep measures through:
// the engine on each device it boots, and SweepBenchmarkCtx on the
// caller's device with zero options and a nil Resilience. It measures one
// benchmark at every valid pair of the device through the harness's
// metered-pass loop, replays the cells the journal already holds, and
// parks the device at the default pair with faults detached. boardName
// keys the result, the journal and the sink's rows; scope roots the
// cells' fault streams. A cell that exhausts its retry budget is
// quarantined.
//
// A caching device with cells to measure gets its kernels, its pairs and
// their noiseless timing from the tables' entry for its timing half, and
// builds its launch payloads from it before the pair loop, so the loop
// runs entirely against the device's launch cache. The payloads are
// bit-identical to per-launch simulation (pinned by property tests), so
// results, golden artifacts and the device's noise stream are unchanged.
// A job whose every cell replays from the journal builds and consults no
// table, and neither does a device with caching off: it simulates every
// launch, which keeps the uncached reference independent of the tables.
func sweepDevice(ctx context.Context, dev *driver.Device, boardName, scope string, b *workloads.Benchmark, opts *SweepOptions, h driver.Harness, so *sweepObs, tables *timingTables) (*BenchResult, error) {
	hostGap := b.HostGap(1)
	// Cells the journal holds replay and are never launched; todo is the
	// rest.
	var pairs, todo []clock.Pair
	if opts.Journal != nil {
		pairs = clock.ValidPairs(dev.Spec())
		todo = make([]clock.Pair, 0, len(pairs))
		for _, p := range pairs {
			if !opts.Journal.Contains(boardName, b.Name, opts.Rep, p) {
				todo = append(todo, p)
			}
		}
	}
	var kernels []*gpu.KernelDesc
	switch {
	case opts.Journal != nil && len(todo) == 0:
		// Every cell replays: nothing is launched.
	case dev.LaunchCaching():
		tab, err := tables.get(dev.Spec(), b)
		if err != nil {
			return nil, err
		}
		kernels, pairs = tab.Kernels(), tab.Pairs()
		if opts.Journal == nil {
			todo = pairs
		}
		if _, err := dev.PrecomputeTable(tab, todo); err != nil {
			return nil, err
		}
	default:
		kernels = b.Kernels(1)
		if pairs == nil {
			pairs = clock.ValidPairs(dev.Spec())
		}
	}
	out := &BenchResult{Benchmark: b.Name, Board: boardName, Pairs: make([]PairResult, len(pairs))}

	for i, p := range pairs {
		if opts.Journal != nil {
			if cell, ok := opts.Journal.Lookup(boardName, b.Name, opts.Rep, p); ok {
				out.Pairs[i] = cell
				if so != nil {
					so.journalHits.Inc()
					h.Track.Instant("journal replay", obs.Arg{Key: "pair", Value: p.String()})
				}
				opts.emitCell(boardName, b.Name, cell, true)
				continue
			}
		}
		rr, attempt, failPt, err := dev.RunMeteredRetried(ctx, h, p, scope+"|"+p.String(), "pair|"+p.String(),
			b.Name, kernels, hostGap, MinRunSeconds)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err // the harness stopped at an attempt boundary
			}
			return nil, fmt.Errorf("characterize: %s at %s: %w", b.Name, p, err)
		}
		cell := pairResult(p, rr, attempt, failPt)
		driver.ReleaseRunResult(rr) // the cell copied out everything it needs
		out.Pairs[i] = cell
		if so != nil {
			so.cells.Inc()
			if cell.Quarantined {
				so.quarantined.With(string(cell.FailPoint)).Inc()
				h.Track.Instant("quarantined", obs.Arg{Key: "pair", Value: p.String()},
					obs.Arg{Key: "point", Value: string(cell.FailPoint)})
			}
		}
		opts.emitCell(boardName, b.Name, cell, false)
		if opts.Journal != nil {
			if err := opts.Journal.Record(boardName, b.Name, opts.Rep, cell); err != nil {
				return nil, err
			}
		}
	}
	// Park the device at the default pair with faults detached — recovery
	// housekeeping must not itself draw faults.
	dev.AttachFaults(nil)
	if err := dev.SetClocks(clock.DefaultPair()); err != nil {
		return nil, err
	}
	return out, nil
}

// Degradation is one human-readable line of the campaign's damage report.
type Degradation struct {
	Board string
	Bench string
	Line  string
}

// Degradations summarizes quarantined and low-confidence cells of a
// campaign, sorted by board then benchmark then pair — empty when the
// campaign fully recovered, which keeps recovered reports byte-identical
// to fault-free ones.
func Degradations(results map[string][]*BenchResult) []Degradation {
	var out []Degradation
	for board, rs := range results {
		for _, r := range rs {
			for i := range r.Pairs {
				pr := &r.Pairs[i]
				switch {
				case pr.Quarantined:
					why := "unstable"
					if pr.FailPoint != "" {
						why = string(pr.FailPoint)
					}
					out = append(out, Degradation{Board: board, Bench: r.Benchmark,
						Line: fmt.Sprintf("%s / %s @ %s: quarantined after %d retries (%s)",
							board, r.Benchmark, pr.Pair, pr.Retries, why)})
				case pr.Confidence > 0 && pr.Confidence < 1:
					out = append(out, Degradation{Board: board, Bench: r.Benchmark,
						Line: fmt.Sprintf("%s / %s @ %s: accepted at %.0f%% confidence (%d samples interpolated)",
							board, r.Benchmark, pr.Pair, pr.Confidence*100, pr.Interpolated)})
				}
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Line < out[b].Line })
	return out
}
