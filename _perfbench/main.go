// Command perfbench is the repository benchmark: it drives the paper
// reproduction, a 10,000-device fleet, a checkpoint-journal resume and an
// in-process gpuperfd through their public APIs, checks every output
// against a bit-exact reference, and prints host-time metrics.
//
//	perfbench --workload paper|fleet|resume|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports per-layer metrics from a traced run and prints the ledger: the
// share of the op time that layer self times account for. The last line
// of standard output is one JSON object {correct, attempted, failed,
// metrics}. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The lists below are
// the contract BENCHMARK.json declares; perfbench_test.go keeps the two
// in step.
type metricDef struct{ Name, Unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_s_p50", "s"},
	{"peak_heap_mb", "MB"},
	{"ok_ratio", "ratio"},
}

var perLayer = []metricDef{
	// Benchmark bookkeeping and the Go runtime.
	{"bench.ops", "count"},
	{"bench.op_s_p90", "s"},
	{"bench.ledger_share", "ratio"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.scrape_lag_ms", "ms"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_cpu_share", "ratio"},
	// paper: the reproduction's sections, timed alone in order.
	{"reproduce.characterization_s", "s"},
	{"reproduce.modeling_s", "s"},
	{"reproduce.ablations_s", "s"},
	{"reproduce.futurework_s", "s"},
	{"reproduce.selfcheck_s", "s"},
	{"report.fig4_err_pp", "pp"},
	// paper: modeling.
	{"core.collect_s", "s"},
	{"core.rows", "count"},
	{"core.train_ms", "ms"},
	{"regress.forward_select_ms", "ms"},
	{"regress.forward_selections", "count"},
	{"linalg.solve_ls_us", "us"},
	// paper and fleet: the measurement apparatus.
	{"driver.launches", "count"},
	{"driver.cache_hit_ratio", "ratio"},
	{"gpu.compile_us", "us"},
	{"gpu.run_pairs_us", "us"},
	{"meter.measure_periodic_us", "us"},
	{"meter.measurements", "count"},
	// fleet: the streaming pipeline.
	{"driver.boot_us", "us"},
	{"fleet.device_us", "us"},
	{"fleet.consume_row_ns", "ns"},
	{"fleet.merge_us", "us"},
	{"fleet.finalize_ms", "ms"},
	{"characterize.cell_us", "us"},
	// resume: the checkpoint journal's read side.
	{"characterize.journal_open_ms", "ms"},
	{"characterize.replay_cell_us", "us"},
	{"characterize.journal_hit_ratio", "ratio"},
	{"session.open_ms", "ms"},
	// serve: the daemon.
	{"characterize.journal_record_us", "us"},
	{"validity.triage_ms", "ms"},
	{"collector.samples_per_op", "count"},
	{"daemon.submit_ms", "ms"},
	{"daemon.status_ms", "ms"},
	{"daemon.queue_ms", "ms"},
	{"daemon.restart_s", "s"},
	{"serve.scrape_ms_p50", "ms"},
	{"serve.scrape_ms_p90", "ms"},
	{"obs.snapshot_ms", "ms"},
	{"obs.write_text_ms", "ms"},
	{"obs.series", "count"},
	{"obs.exposition_bytes", "bytes"},
}

// metrics maps a metric name to its value.
type metrics map[string]float64

// workload is one benchmark traffic mix.
type workload interface {
	// Setup builds the workload's inputs and computes the bit-exact
	// reference (launch cache off, one worker, one shard), returning the
	// reference digest. It runs several times per run; each call replaces
	// the previous set-up, and all must agree.
	Setup(ctx context.Context) (string, error)
	// Op runs one timed operation and checks its output against the
	// reference; a mismatch is an error.
	Op(ctx context.Context) error
	// TracedOp runs one operation with a span around every call into a
	// layer, under the given op id.
	TracedOp(ctx context.Context, tr *tracer, op int64) error
	// Layers fills the workload's per-layer metrics from the traced ops'
	// spans, the program's own counters and isolated probes.
	Layers(ctx context.Context, tr *tracer, ops []int64, m metrics) error
	// Lanes is the number of spans the traced op runs in parallel at its
	// top level (the ledger divides by lanes × op time).
	Lanes() int
	// Remainder names what the ledger does not measure.
	Remainder() string
}

// server is a workload that keeps a server running between its ops.
type server interface {
	// Maintain runs untimed upkeep before an op (serve restarts its
	// daemon every few campaigns) and returns how long it took; the run's
	// budget is extended by as much.
	Maintain(ctx context.Context) (time.Duration, error)
	// Extra reports figures measured alongside the ops that the untraced
	// run prints but that are not part of the metric contract.
	Extra() []string
	Close() error
}

// setupReps is how many times each run sets up; setup_s is the median.
const setupReps = 3

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string // scratch directory inside the checkout
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "paper, fleet, resume or serve")
	flag.Int64Var(&o.seed, "seed", 42, "workload seed; every input derives from it")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = traceFlag == 1
	if o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "paper":
		return newPaper(o), nil
	case "fleet":
		return newFleet(o), nil
	case "resume":
		return newResume(o), nil
	case "serve":
		return newServe(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper, fleet, resume or serve)", o.workload)
}

func run(o options) error {
	// Everything the run writes stays under the checkout's build directory.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-"+o.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	o.dir = dir
	w, err := newWorkload(o)
	if err != nil {
		return err
	}
	ctx := context.Background()

	var setups []float64
	ref := ""
	agree := true
	reps := setupReps
	if o.trace {
		reps = 1 // the traced run reports no set-up time
	}
	for i := 0; i < reps; i++ {
		start := time.Now()
		d, err := w.Setup(ctx)
		if err != nil {
			if srv, ok := w.(server); ok {
				_ = srv.Close() // the set-up error is the one to report
			}
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i == 0 {
			ref = d
		} else if d != ref {
			agree = false
			fmt.Fprintf(os.Stderr, "perfbench: set-up %d reference digest %s differs from %s\n", i, d, ref)
		}
	}

	var res result
	if o.trace {
		res, err = tracedRun(ctx, o, w)
	} else {
		res, err = timedRun(ctx, o, w)
		res.metrics["setup_s"] = median(setups)
	}
	if srv, ok := w.(server); ok {
		if cerr := srv.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	res.correct = res.correct && agree
	res.print(o, w)
	return nil
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	metrics           metrics
	details           []string // human-readable lines printed above the JSON
}

// loop runs op for budget, returning per-op host seconds, the failure
// count and, when heap is non-nil, each op's peak heap in MiB. At least
// one op runs.
func loop(ctx context.Context, w workload, budget time.Duration, heap *heapSampler, op func() error) (times, peaks []float64, failed int, err error) {
	deadline := time.Now().Add(budget)
	for len(times) == 0 || time.Now().Before(deadline) {
		if srv, ok := w.(server); ok {
			paused, err := srv.Maintain(ctx)
			if err != nil {
				return nil, nil, 0, err
			}
			deadline = deadline.Add(paused)
		}
		if heap != nil {
			heap.take()
		}
		start := time.Now()
		opErr := op()
		times = append(times, time.Since(start).Seconds())
		if heap != nil {
			peaks = append(peaks, heap.take())
		}
		if opErr != nil {
			failed++
			if failed <= 3 {
				fmt.Fprintln(os.Stderr, "perfbench: op failed:", opErr)
			}
		}
	}
	return times, peaks, failed, nil
}

// timedRun is the untraced run behind the end-to-end metrics.
func timedRun(ctx context.Context, o options, w workload) (result, error) {
	heap := startHeapSampler(5 * time.Millisecond)
	times, peaks, failed, err := loop(ctx, w, time.Duration(o.seconds)*time.Second, heap, func() error { return w.Op(ctx) })
	heap.Stop()
	if err != nil {
		return result{}, err
	}
	n := len(times)
	return result{
		correct:   failed == 0,
		attempted: n,
		failed:    failed,
		details: []string{fmt.Sprintf("op seconds over %d ops: min %.4f, p50 %.4f, p90 %.4f, max %.4f",
			n, percentile(times, 0), median(times), percentile(times, 0.9), percentile(times, 1))},
		metrics: metrics{
			"op_s_p50":     median(times),
			"peak_heap_mb": median(peaks),
			"ok_ratio":     1 - float64(failed)/float64(n),
		},
	}, nil
}

// tracedRun spends 40% of the budget on untraced ops (the ledger's
// denominator and the tracing-overhead baseline) and 60% on traced ops,
// then collects the per-layer metrics.
func tracedRun(ctx context.Context, o options, w workload) (result, error) {
	budget := time.Duration(o.seconds) * time.Second
	before := readRuntimeCounters()
	plain, _, failedPlain, err := loop(ctx, w, budget*4/10, nil, func() error { return w.Op(ctx) })
	if err != nil {
		return result{}, err
	}
	after := readRuntimeCounters()

	tr := newTracer()
	var ops []int64
	traced, _, failedTraced, err := loop(ctx, w, budget*6/10, nil, func() error {
		op := tr.newOp()
		ops = append(ops, op)
		return w.TracedOp(ctx, tr, op)
	})
	if err != nil {
		return result{}, err
	}

	m := metrics{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	p50 := median(plain)
	var walls []float64
	for _, op := range ops {
		if d, ok := tr.opWall(op); ok {
			walls = append(walls, d.Seconds())
		}
	}
	m["bench.ops"] = float64(len(plain) + len(traced))
	m["bench.op_s_p90"] = percentile(plain, 0.9)
	m["bench.trace_overhead_pct"] = (median(walls)/p50 - 1) * 100
	m["go.alloc_mb_per_op"] = float64(after.allocBytes-before.allocBytes) / (1 << 20) / float64(len(plain))
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		m["go.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / cpu
	}
	if err := w.Layers(ctx, tr, ops, m); err != nil {
		return result{}, fmt.Errorf("per-layer metrics: %w", err)
	}
	share, lines := ledger(tr, ops, p50, w.Lanes())
	m["bench.ledger_share"] = share
	lines = append(lines, fmt.Sprintf("unmeasured remainder %.1f%%: %s", (1-share)*100, w.Remainder()))

	path := filepath.Join(".bench_build", fmt.Sprintf("perfbench-trace-%s-seed%d.json", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return result{}, fmt.Errorf("writing trace: %w", err)
	}
	lines = append(lines, "spans written to "+path)
	failed := failedPlain + failedTraced
	return result{
		correct:   failed == 0,
		attempted: len(plain) + len(traced),
		failed:    failed,
		metrics:   m,
		details:   lines,
	}, nil
}

// ledger sums the layer self times of each traced op — everything but the
// op's root span, whose self time is the unmeasured remainder, and the
// concurrent wait layers — and returns the median share of lanes × the
// untraced op time they account for, with one line per layer.
func ledger(tr *tracer, ops []int64, opS float64, lanes int) (float64, []string) {
	perLayerNS := map[string][]float64{}
	calls := map[string]int64{}
	concurrent := map[string]bool{}
	var shares []float64
	for _, op := range ops {
		root, layers := tr.opLedger(op)
		if root == nil {
			continue
		}
		var sum int64
		for name, lt := range layers {
			if name == root.Name {
				continue
			}
			if !lt.Concurrent {
				sum += lt.SelfNS
			}
			perLayerNS[name] = append(perLayerNS[name], float64(lt.SelfNS))
			calls[name] = lt.Calls
			concurrent[name] = lt.Concurrent
		}
		shares = append(shares, float64(sum)/1e9/(opS*float64(lanes)))
	}
	names := make([]string, 0, len(perLayerNS))
	for n := range perLayerNS {
		names = append(names, n)
	}
	sort.Strings(names)
	lines := []string{fmt.Sprintf("ledger over %d traced ops, untraced op %.4f s × %d lane(s):", len(shares), opS, lanes)}
	for _, n := range names {
		ms := median(perLayerNS[n]) / 1e6
		note := ""
		if concurrent[n] {
			note = "  (concurrent, not summed)"
		}
		lines = append(lines, fmt.Sprintf("  %-32s %10.3f ms/op  %8d calls  %5.1f%%%s", n, ms, calls[n], ms/1e3/(opS*float64(lanes))*100, note))
	}
	share := median(shares)
	lines = append(lines, fmt.Sprintf("layer self times account for %.1f%% of the op", share*100))
	return share, lines
}

// print writes the human-readable report, then the JSON result line.
func (r result) print(o options, w workload) {
	defs := endToEnd
	kind := "end-to-end"
	if o.trace {
		defs = perLayer
		kind = "per-layer"
	}
	fmt.Printf("perfbench %s: workload=%s seed=%d seconds=%d nproc=%d\n", kind, o.workload, o.seed, o.seconds, runtime.GOMAXPROCS(0))
	fmt.Printf("ops: %d attempted, %d failed (error ratio %.4f)\n", r.attempted, r.failed, float64(r.failed)/float64(r.attempted))
	for _, d := range defs {
		fmt.Printf("  %-32s %14.6f %s\n", d.Name, r.metrics[d.Name], d.Unit)
	}
	if srv, ok := w.(server); ok && !o.trace {
		for _, l := range srv.Extra() {
			fmt.Println("  " + l)
		}
	}
	for _, l := range r.details {
		fmt.Println(l)
	}
	out := map[string]any{}
	for _, d := range defs {
		out[d.Name] = map[string]any{"value": r.metrics[d.Name], "unit": d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// errMismatch marks an op whose output digest differs from the reference.
var errMismatch = errors.New("output digest differs from the bit-exact reference")

// check compares an op's output with the reference digest.
func check(what, got, want string) error {
	if d := digest(got); d != want {
		return fmt.Errorf("%s: %w (%s… vs %s…)", what, errMismatch, d[:12], want[:12])
	}
	return nil
}
