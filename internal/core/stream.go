package core

import (
	"context"
	"sync"

	"gpuperf/internal/arch"
	"gpuperf/internal/counters"
	"gpuperf/internal/driver"
	"gpuperf/internal/fault"
	"gpuperf/internal/workloads"
)

// The row-stream layer mirrors characterize's: the collection engine
// emits each modeling observation into a RowSink the moment it is
// measured, and Dataset is one fold over that stream (DatasetFold)
// instead of the mandatory intermediate. A consumer that only needs
// aggregates never holds the full corpus.

// Row is one modeling observation as a stream element. BenchIndex is the
// observation's benchmark's index in the collection's benchmark slice
// and Seq its measurement order within that benchmark, so a fold can
// rebuild the engine's deterministic row order from an unordered stream.
type Row struct {
	BenchIndex int
	Seq        int
	Obs        Observation
}

// RowSink consumes a collection as a stream. ConsumeRow is called from
// every pool worker, so implementations must be safe for concurrent use.
// Rows of different benchmarks interleave arbitrarily; within one
// benchmark rows arrive in Seq order. A benchmark's rows are emitted
// only once the whole benchmark succeeds — a dropped benchmark
// contributes nothing, exactly like the materialized dataset. When
// CollectStream returns an error the stream is partial and must be
// discarded.
type RowSink interface {
	ConsumeRow(Row)
}

// RowSinkFunc adapts a function to a RowSink.
type RowSinkFunc func(Row)

// ConsumeRow implements RowSink.
func (f RowSinkFunc) ConsumeRow(r Row) { f(r) }

// CollectStats carries everything about a streamed collection that is
// not a row: the board identity and the fault-campaign bookkeeping.
type CollectStats struct {
	Board   string
	Spec    *arch.Spec
	Set     *counters.Set
	Samples int // distinct (benchmark, size) samples across emitted rows
	Dropped []DroppedBench
	Retries int
}

// CollectStream is the streaming form of CollectCtx: identical engine,
// identical observations, but rows leave through the sink as each
// benchmark completes instead of being materialized. Everything
// documented on CollectCtx (determinism at any worker count, drop-on-
// exhaustion, cancellation at pass boundaries) holds unchanged;
// CollectCtx is this function plus a DatasetFold.
func CollectStream(ctx context.Context, boardName string, benches []*workloads.Benchmark, opts CollectOptions, sink RowSink) (*CollectStats, error) {
	res := opts.Res
	if res == nil {
		res = &fault.Resilience{}
	}
	res.Observe()
	co := newCollectObs(res.Obs, boardName)
	probe, err := driver.OpenBoard(boardName)
	if err != nil {
		return nil, err
	}
	st := &CollectStats{
		Board: boardName,
		Spec:  probe.Spec(),
		Set:   probe.CounterSet(),
	}

	type chunk struct {
		samples int
		retries int
		dropped *DroppedBench
	}
	// Each job writes only its own slot; Pool returns after every job has
	// delivered its result, so the reads below are ordered after the writes.
	chunks := make([]chunk, len(benches))
	err = driver.Pool(ctx, opts.Workers, len(benches), cancelled, func(idx int) error {
		rows, samples, retries, dropped, err := collectBench(ctx, boardName, benches[idx], opts.Seed, res, co)
		if err != nil {
			return err
		}
		if dropped == nil && sink != nil {
			// Emit at benchmark granularity: a failed or dropped
			// benchmark discards its partial rows, so nothing may leave
			// the worker before the benchmark is known good.
			for i, o := range rows {
				sink.ConsumeRow(Row{BenchIndex: idx, Seq: i, Obs: o})
			}
		}
		chunks[idx] = chunk{samples: samples, retries: retries, dropped: dropped}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, c := range chunks {
		st.Retries += c.retries
		if c.dropped != nil {
			st.Dropped = append(st.Dropped, *c.dropped)
			continue
		}
		st.Samples += c.samples
	}
	return st, nil
}

// DatasetFold rebuilds the classic materialized Dataset from the row
// stream: rows bucket per benchmark index, so the fold reproduces the
// engine's deterministic benchmark-major row order no matter how the
// pool interleaved them. Safe for concurrent use.
type DatasetFold struct {
	mu   sync.Mutex
	rows [][]Observation
}

// NewDatasetFold sizes the fold for a collection over nBenches
// benchmarks.
func NewDatasetFold(nBenches int) *DatasetFold {
	return &DatasetFold{rows: make([][]Observation, nBenches)}
}

// ConsumeRow implements RowSink.
func (f *DatasetFold) ConsumeRow(r Row) {
	f.mu.Lock()
	f.rows[r.BenchIndex] = append(f.rows[r.BenchIndex], r.Obs)
	f.mu.Unlock()
}

// Dataset folds the streamed rows and the collection stats into the
// materialized corpus, byte-identical to what the engine produced before
// the stream existed.
func (f *DatasetFold) Dataset(st *CollectStats) *Dataset {
	ds := &Dataset{
		Board:   st.Board,
		Spec:    st.Spec,
		Set:     st.Set,
		Samples: st.Samples,
		Dropped: st.Dropped,
		Retries: st.Retries,
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, rs := range f.rows {
		n += len(rs)
	}
	ds.Rows = make([]Observation, 0, n)
	for _, rs := range f.rows {
		ds.Rows = append(ds.Rows, rs...)
	}
	return ds
}
