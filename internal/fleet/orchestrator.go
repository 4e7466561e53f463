package fleet

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"

	"gpuperf/internal/arch"
	"gpuperf/internal/characterize"
	"gpuperf/internal/clock"
	"gpuperf/internal/driver"
	"gpuperf/internal/fault"
	"gpuperf/internal/obs"
	"gpuperf/internal/validity"
	"gpuperf/internal/workloads"
)

// The orchestrator partitions the fleet across shards (device i belongs
// to shard i mod shards), runs each shard as one streaming sweep
// pipeline over its devices — generated on demand in small batches, so
// peak heap is bounded by (shards × batch), independent of fleet size —
// and folds every shard's rows into a per-shard Aggregate. After the
// shards finish, the aggregates merge associatively and Finalize renders
// the report. Because per-cell measurements are a pure function of
// (seed, device, benchmark, pair) and the folds are exact integer
// arithmetic, the report is byte-identical at a fixed seed for ANY shard
// count — the property the fleet-smoke CI job cmp's.

// Options configures a fleet campaign run.
type Options struct {
	Seed int64
	// Size is the fleet's device count (≥ 1).
	Size int
	// Shards partitions devices across concurrent shard pipelines; < 1
	// means 1 and values above Size clamp to Size. The report does not
	// depend on it.
	Shards int
	// Workers is the fleet-wide worker budget, split across shards
	// (each shard sweeps with max(1, Workers/Shards) workers).
	Workers int
	// Jitter is the per-device parameter spread.
	Jitter JitterProfile
	// BaseBoards seeds the round-robin population (empty: all four paper
	// boards).
	BaseBoards []string
	// Benches is the benchmark set swept on every device.
	Benches []*workloads.Benchmark
	// Checkpoint, when non-empty, is the base path for per-shard
	// journals (<Checkpoint>.shard<N>) with merged-journal resume.
	Checkpoint string
	// Res carries the fault campaign and retry policy, shared by every
	// shard. nil runs fault-free.
	Res *fault.Resilience
	// FaultProfile is the canonical fault-profile spec bound into the
	// fleet cohort (empty for fault-free).
	FaultProfile string
	// Obs, when non-nil, receives instrumentation. Note the per-device
	// track cost: prefer nil (or a disabled recorder) for very large
	// fleets.
	Obs *obs.Recorder
	// TrackPrefix namespaces obs track names; empty means "fleet".
	TrackPrefix string
	// CodeVersion stamps the cohort (empty: resolved from build info).
	CodeVersion string
	// Tracker, when non-nil, receives per-shard progress; it must have
	// been built with NewTracker(ClampShards(Shards, Size)). nil gets a
	// private tracker.
	Tracker *Tracker
	// Warn receives human-readable salvage notes from the journal merge.
	// nil logs to stderr.
	Warn func(format string, args ...any)
}

// ClampShards is the orchestrator's shard-count normalization: at least
// 1, at most size. Exported so callers sizing a Tracker agree with Run.
func ClampShards(shards, size int) int {
	if shards < 1 {
		shards = 1
	}
	if shards > size && size > 0 {
		shards = size
	}
	return shards
}

// CohortProfile builds the profile string binding a fleet campaign's
// journals: the canonical fault profile plus the fleet geometry. The
// shard count is deliberately absent — journals from any shard layout of
// the same campaign share a cohort, which is what makes resharded
// resume legal.
func CohortProfile(faultProfile string, size int, jitter JitterProfile) string {
	return faultProfile + "+fleet[n=" + strconv.Itoa(size) + "," + jitter.String() + "]"
}

// Cohort is the fleet campaign's identity, shared by every shard
// journal.
func (o *Options) Cohort() validity.Cohort {
	cv := o.CodeVersion
	if cv == "" {
		cv = validity.ResolveCodeVersion()
	}
	return validity.Cohort{
		Seed:        o.Seed,
		Boards:      o.BaseBoards,
		Profile:     CohortProfile(o.FaultProfile, o.Size, o.Jitter),
		CodeVersion: cv,
	}
}

func (o *Options) warn(format string, args ...any) {
	if o.Warn != nil {
		o.Warn(format, args...)
		return
	}
	fmt.Fprintf(os.Stderr, "fleet: "+format+"\n", args...)
}

// Run executes the fleet campaign and returns the finalized report.
// Cancelling ctx stops every shard at a sweep-cell boundary with its
// journal resumable; the error wraps the cause.
func Run(ctx context.Context, opts Options) (*Report, error) {
	fl, err := New(opts.Seed, opts.BaseBoards, opts.Size, opts.Jitter)
	if err != nil {
		return nil, err
	}
	opts.BaseBoards = fl.BaseNames()
	shards := ClampShards(opts.Shards, opts.Size)

	res := opts.Res
	if res == nil {
		res = &fault.Resilience{}
	}
	if opts.Obs != nil && res.Obs == nil {
		res.Obs = opts.Obs
	}
	// Observe must run before any shard pool starts; every SweepStream
	// below then finds the policy already wired and never races.
	res.Observe()

	tracker := opts.Tracker
	if tracker == nil || tracker.Shards() != shards {
		tracker = NewTracker(shards)
	}
	planShards(tracker, fl, shards, len(opts.Benches))

	journals, err := openShardJournals(&opts, fl, shards)
	if err != nil {
		return nil, err
	}
	defer closeAll(journals)

	shardWorkers := opts.Workers / shards
	if shardWorkers < 1 {
		shardWorkers = 1
	}
	aggs := make([]*Aggregate, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		var j *characterize.Journal
		if journals != nil {
			j = journals[s]
		}
		wg.Add(1)
		go func(s int, j *characterize.Journal) {
			defer wg.Done()
			aggs[s], errs[s] = runShard(ctx, s, shards, shardWorkers, fl, j, res, tracker, &opts)
		}(s, j)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d: %w", s, err)
		}
	}

	merged := NewAggregate()
	for _, a := range aggs {
		merged.Merge(a)
	}
	return merged.Finalize(opts.Seed, opts.Size, opts.BaseBoards, opts.Jitter), nil
}

// planShards charges each shard's planned device and cell counts before
// any work starts. Shards are clamped to the fleet size, so every shard
// owns at least one device.
func planShards(t *Tracker, fl *Fleet, shards, nBenches int) {
	for s, cells := range plannedCells(fl.bases, fl.size, shards, nBenches) {
		c := &t.shards[s]
		c.devicesPlanned.Add(int64((fl.size - s + shards - 1) / shards)) // devices i ≡ s (mod shards)
		c.cellsPlanned.Add(cells)
	}
}

// plannedCells returns each shard's cell count for a fleet of size
// devices over bases (round robin) sweeping nBenches benchmarks, where
// device i belongs to shard i%shards. Jitter never touches the ValidPairs
// matrix, so every device sweeps its base board's pair grid, and each
// grid is counted once.
func plannedCells(bases []*arch.Spec, size, shards, nBenches int) []int64 {
	perDevice := make([]int64, len(bases))
	for i, base := range bases {
		perDevice[i] = int64(len(clock.ValidPairs(base)) * nBenches)
	}
	out := make([]int64, shards)
	for i := 0; i < size; i++ {
		out[i%shards] += perDevice[i%len(bases)]
	}
	return out
}

// openShardJournals pools any existing shard journals, opens one fresh
// journal per shard under the fleet cohort, redistributes pooled cells
// to their owning shards under the current layout, and only then retires
// the surplus shard files to <file>.merged. Returns nil when the
// campaign runs without a checkpoint.
func openShardJournals(opts *Options, fl *Fleet, shards int) ([]*characterize.Journal, error) {
	if opts.Checkpoint == "" {
		return nil, nil
	}
	cohort := opts.Cohort()
	pool, err := mergeShardJournals(opts.Checkpoint, shards, cohort, opts.warn)
	if err != nil {
		return nil, err
	}
	journals := make([]*characterize.Journal, shards)
	for s := range journals {
		j, err := characterize.OpenJournalCohort(ShardPath(opts.Checkpoint, s),
			characterize.JournalConfig{Cohort: cohort, Warn: opts.Warn})
		if err != nil {
			closeAll(journals)
			return nil, err
		}
		journals[s] = j
	}
	for _, c := range pool.cells {
		idx, ok := DeviceIndex(c.Board)
		if !ok || idx >= fl.size || fl.DeviceName(idx) != c.Board {
			continue // orphan cell from an older fleet geometry
		}
		j := journals[idx%shards]
		if j.Contains(c.Board, c.Bench, c.Rep, c.Result.Pair) {
			continue
		}
		if err := j.Record(c.Board, c.Bench, c.Rep, c.Result); err != nil {
			closeAll(journals)
			return nil, err
		}
	}
	for _, path := range pool.surplus {
		if err := os.Rename(path, path+".merged"); err != nil {
			closeAll(journals)
			return nil, fmt.Errorf("fleet: retiring %s: %w", path, err)
		}
	}
	return journals, nil
}

// closeAll closes every open journal of journals.
func closeAll(journals []*characterize.Journal) {
	for _, j := range journals {
		if j != nil {
			_ = j.Close()
		}
	}
}

// shardSink adapts one shard's row stream onto its Aggregate and the
// tracker. Device completion is counted when every benchmark of a device
// has streamed its BenchResult.
type shardSink struct {
	agg    *Aggregate
	tr     *Tracker
	shard  int
	nBench int

	mu        sync.Mutex
	benchDone map[string]int
}

func (s *shardSink) ConsumeRow(r characterize.Row) {
	s.agg.ConsumeRow(r)
	c := &s.tr.shards[s.shard]
	c.cellsDone.Add(1)
	c.rowsFolded.Add(1)
	if r.Replayed {
		c.replayed.Add(1)
	}
	if r.Result.Quarantined {
		c.quarantined.Add(1)
	}
}

func (s *shardSink) ConsumeBench(b *characterize.BenchResult) {
	s.agg.ConsumeBench(b)
	s.mu.Lock()
	s.benchDone[b.Board]++
	done := s.benchDone[b.Board] == s.nBench
	if done {
		delete(s.benchDone, b.Board)
	}
	s.mu.Unlock()
	if done {
		s.tr.shards[s.shard].devicesDone.Add(1)
	}
}

// runShard sweeps every device the shard owns (ascending index, batched
// so at most one batch of generated specs is live) and folds the stream
// into the shard's Aggregate.
func runShard(ctx context.Context, shard, shards, workers int, fl *Fleet, journal *characterize.Journal, res *fault.Resilience, tracker *Tracker, opts *Options) (*Aggregate, error) {
	agg := NewAggregate()
	sink := &shardSink{
		agg: agg, tr: tracker, shard: shard, nBench: len(opts.Benches),
		benchDone: make(map[string]int),
	}
	prefix := opts.TrackPrefix
	if prefix == "" {
		prefix = "fleet"
	}
	// batchSize bounds live device specs per shard: enough to keep the
	// shard's workers busy across devices, small enough that fleet memory
	// stays flat in the fleet size.
	batchSize := 4 * workers
	if batchSize < 16 {
		batchSize = 16
	}
	owned := make([]int, 0, batchSize)
	for start := shard; start < fl.size; {
		owned = owned[:0]
		for i := start; i < fl.size && len(owned) < batchSize; i += shards {
			owned = append(owned, i)
		}
		if len(owned) == 0 {
			break
		}
		start = owned[len(owned)-1] + shards

		devs := make(map[string]Device, len(owned))
		names := make([]string, len(owned))
		for bi, i := range owned {
			d := fl.Device(i)
			devs[d.Name] = d
			names[bi] = d.Name
		}
		swOpts := characterize.SweepOptions{
			Seed:        opts.Seed,
			Workers:     workers,
			Res:         res,
			Journal:     journal,
			Obs:         opts.Obs,
			TrackPrefix: prefix,
			Sink:        sink,
			Boot: func(name string, in *fault.Injector) (*driver.Device, error) {
				d, ok := devs[name]
				if !ok {
					return nil, fmt.Errorf("fleet: unknown device %q", name)
				}
				dev, err := driver.OpenSpecWithFaults(d.Spec, in)
				if err != nil {
					return nil, err
				}
				dev.Meter().Gain = d.MeterGain
				return dev, nil
			},
			SpecOf: func(name string) *arch.Spec {
				if d, ok := devs[name]; ok {
					return d.Spec
				}
				return nil
			},
		}
		if err := characterize.SweepStream(ctx, names, opts.Benches, swOpts); err != nil {
			return agg, err
		}
	}
	return agg, nil
}
