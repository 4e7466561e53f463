package characterize

import (
	"context"
	"fmt"
	"sync"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
	"gpuperf/internal/driver"
	"gpuperf/internal/gpu"
	"gpuperf/internal/workloads"
)

// The row-stream layer turns the sweep engine inside out: instead of
// materializing every result and handing the caller a map, the engine
// emits each resolved cell (a Row) and each completed (board, benchmark)
// job (a BenchResult) into a RowSink as soon as it exists. A consumer
// that only needs aggregates — the fleet orchestrator folding population
// statistics over ten thousand devices — holds O(aggregate) memory
// instead of O(cells). Sweep itself is now one fold over this stream
// (collect every BenchResult into the classic map), so the materializing
// path and the streaming path cannot drift apart.

// Row is one resolved sweep cell as a stream element: the cell's
// measurement plus enough identity (board, benchmark, repetition) to
// fold it without any surrounding map. Replayed marks cells restored
// from a checkpoint journal rather than measured.
type Row struct {
	Board    string
	Bench    string
	Rep      int
	Replayed bool
	Result   PairResult
}

// RowSink consumes a sweep as a stream. Both methods are called from
// every sweep worker, so implementations must be safe for concurrent
// use. The stream is unordered across jobs — cells of different
// (board, benchmark) jobs interleave arbitrarily — but within one job
// ConsumeRow is called in Table III pair order and ConsumeBench last.
// Byte-identity therefore requires folds that are associative and
// commutative across jobs (see internal/fleet for the canonical
// integer-fold aggregator).
//
// ConsumeBench transfers ownership: after the call the engine neither
// retains nor mutates the BenchResult, and the sink may keep it.
type RowSink interface {
	ConsumeRow(Row)
	ConsumeBench(*BenchResult)
}

// SinkFuncs adapts plain functions to a RowSink; nil fields are no-ops.
type SinkFuncs struct {
	Row   func(Row)
	Bench func(*BenchResult)
}

// ConsumeRow implements RowSink.
func (s SinkFuncs) ConsumeRow(r Row) {
	if s.Row != nil {
		s.Row(r)
	}
}

// ConsumeBench implements RowSink.
func (s SinkFuncs) ConsumeBench(b *BenchResult) {
	if s.Bench != nil {
		s.Bench(b)
	}
}

// SweepStream is the streaming form of Sweep: identical engine, identical
// cells, but results are emitted into opts.Sink instead of being
// materialized — the sweep itself holds one in-flight BenchResult per
// worker regardless of how many jobs it runs. Everything documented on
// Sweep (determinism at any worker count, cell-boundary cancellation,
// journal replay) holds unchanged; Sweep is this function plus a
// collecting fold.
//
// The call holds one timing table per (timing half, benchmark) that its
// jobs measure (see timingTables), so devices booted from one base board
// compile its kernels once per call, and it drops each table once the
// last job that can ask for it has.
func SweepStream(ctx context.Context, boardNames []string, benches []*workloads.Benchmark, opts SweepOptions) error {
	nb := len(benches)
	jobs := len(boardNames) * nb
	if jobs == 0 {
		return nil
	}
	prepareSweepObs(&opts, jobs)
	tables := newTimingTables()
	for _, name := range boardNames {
		if spec := opts.specOf(name); spec != nil {
			for _, b := range benches {
				tables.expect(spec, b)
			}
		}
	}
	return driver.Pool(ctx, opts.Workers, jobs, cancelled, func(idx int) error {
		r, err := sweepBenchR(ctx, boardNames[idx/nb], benches[idx%nb], opts, tables)
		if err != nil {
			return err
		}
		if opts.Sink != nil {
			opts.Sink.ConsumeBench(r)
		}
		return nil
	})
}

// timingTables is one sweep call's timing tables, one gpu.TimingTable per
// (timing half, benchmark). Execution time depends only on the timing
// half (arch.Timing) and the pair, and fleet jitter moves only the power
// half, so every device booted from one base board shares its table: the
// first job of a key that has cells to measure builds it, from the
// benchmark's kernels at the device's valid pairs, and every later job of
// the key reads it. Nothing outlives the SweepStream call or is shared
// across calls. Before its pool starts, the call counts the jobs that can
// ask for each key (expect), from the spec SpecOf names; the entry is
// dropped when the last of them asks, so a classic sweep, where each key
// has one job, holds no table past the job that measures it. An entry
// whose key was not counted stays until the call returns. Keys come from
// the booted device's spec, so a Boot seam that boots a spec other than
// SpecOf's still gets a table built for the device it booted; it can cost
// the counted key a second build, never a wrong table. A nil cache builds
// a one-off table per request.
type timingTables struct {
	mu      sync.Mutex
	entries map[tableKey]*tableEntry
	askers  map[tableKey]int // counted jobs that have not asked yet
}

func newTimingTables() *timingTables {
	return &timingTables{entries: make(map[tableKey]*tableEntry), askers: make(map[tableKey]int)}
}

// expect counts one more job that will ask for spec's timing half and b.
func (c *timingTables) expect(spec *arch.Spec, b *workloads.Benchmark) {
	c.askers[tableKey{timing: spec.Timing, bench: b}]++
}

type tableKey struct {
	timing arch.Timing
	bench  *workloads.Benchmark
}

// tableEntry is filled once, by whichever job first asks for its key;
// jobs asking meanwhile wait on once.
type tableEntry struct {
	once sync.Once
	tab  *gpu.TimingTable
	err  error
}

// get returns the table for spec's timing half and b, building it on
// first use, and drops the entry when the key's last counted job asks.
func (c *timingTables) get(spec *arch.Spec, b *workloads.Benchmark) (*gpu.TimingTable, error) {
	if c == nil {
		return newTimingTable(spec, b)
	}
	k := tableKey{timing: spec.Timing, bench: b}
	c.mu.Lock()
	e := c.entries[k]
	if e == nil {
		e = new(tableEntry)
		c.entries[k] = e
	}
	switch n := c.askers[k]; {
	case n > 1:
		c.askers[k] = n - 1
	case n == 1:
		delete(c.askers, k)
		delete(c.entries, k)
	}
	c.mu.Unlock()
	e.once.Do(func() { e.tab, e.err = newTimingTable(spec, b) })
	return e.tab, e.err
}

func newTimingTable(spec *arch.Spec, b *workloads.Benchmark) (*gpu.TimingTable, error) {
	t, err := gpu.NewTimingTable(spec, b.Kernels(1), clock.ValidPairs(spec))
	if err != nil {
		return nil, fmt.Errorf("characterize: %s on %s: %w", b.Name, spec.Name, err)
	}
	return t, nil
}

// resultFold is the collecting RowSink behind Sweep: it places every
// completed BenchResult into its precomputed [board][benchmark] slot and
// chains to the caller's sink so attaching one never changes what Sweep
// returns. Duplicate board names get a queue of slots; results for the
// same (board, benchmark) are byte-identical by the determinism
// contract, so which duplicate lands where is unobservable.
type resultFold struct {
	mu    sync.Mutex
	slots map[string][]int
	flat  []*BenchResult
	next  RowSink
}

func newResultFold(boardNames []string, benches []*workloads.Benchmark, next RowSink) *resultFold {
	nb := len(benches)
	f := &resultFold{
		slots: make(map[string][]int, len(boardNames)*nb),
		flat:  make([]*BenchResult, len(boardNames)*nb),
		next:  next,
	}
	for bi, board := range boardNames {
		for bj, b := range benches {
			k := board + "\x00" + b.Name
			f.slots[k] = append(f.slots[k], bi*nb+bj)
		}
	}
	return f
}

func (f *resultFold) ConsumeRow(r Row) {
	if f.next != nil {
		f.next.ConsumeRow(r)
	}
}

func (f *resultFold) ConsumeBench(b *BenchResult) {
	k := b.Board + "\x00" + b.Benchmark
	f.mu.Lock()
	if q := f.slots[k]; len(q) > 0 {
		f.flat[q[0]] = b
		f.slots[k] = q[1:]
	}
	f.mu.Unlock()
	if f.next != nil {
		f.next.ConsumeBench(b)
	}
}

// results reshapes the flat slice into the classic [board][benchmark]
// map, sharing the backing array exactly like the pre-stream engine.
func (f *resultFold) results(boardNames []string, nb int) map[string][]*BenchResult {
	out := make(map[string][]*BenchResult, len(boardNames))
	for bi, name := range boardNames {
		out[name] = f.flat[bi*nb : (bi+1)*nb]
	}
	return out
}
