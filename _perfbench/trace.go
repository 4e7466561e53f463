package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The tracer records one span around each call the benchmark makes into a
// layer: name, start, end, parent, and the op the call belongs to. Calls
// too frequent to keep one record each (a boot per device, a fold per
// row) are kept as leaf aggregates — a call count and a duration total
// under their parent span. Everything stays in memory; write emits the
// run's spans as one Chrome trace-event file when the run ends.
//
// A nil *tracer is the untraced mode: every method is a no-op, so an op
// written once serves both runs.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []*span
	leaves []*leaf
	nextID atomic.Int64
}

// span is one recorded call. Start and End are nanoseconds since t0.
type span struct {
	ID, Parent, Op int64
	Name           string
	Start, End     int64
}

// leaf aggregates the repeated calls of one layer under one parent span.
type leaf struct {
	Parent, Op int64
	Name       string
	n, ns      atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp allocates an op id; ops and spans share one id space.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span of op under parent (0: a root span).
func (t *tracer) begin(op, parent int64, name string) *span {
	if t == nil {
		return nil
	}
	s := &span{ID: t.nextID.Add(1), Parent: parent, Op: op, Name: name, Start: t.now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// end closes a span opened by begin.
func (t *tracer) end(s *span) {
	if t == nil {
		return
	}
	s.End = t.now()
}

// id is the span's id for use as a parent (0 for the untraced nil span).
func (s *span) id() int64 {
	if s == nil {
		return 0
	}
	return s.ID
}

// leaf returns the aggregate for repeated calls of name under parent.
func (t *tracer) leaf(op int64, parent *span, name string) *leaf {
	if t == nil {
		return nil
	}
	l := &leaf{Parent: parent.id(), Op: op, Name: name}
	t.mu.Lock()
	t.leaves = append(t.leaves, l)
	t.mu.Unlock()
	return l
}

// start returns the clock reading a later done call measures from.
func (l *leaf) start() time.Time {
	if l == nil {
		return time.Time{}
	}
	return time.Now()
}

// done adds one call that began at start.
func (l *leaf) done(start time.Time) {
	if l == nil {
		return
	}
	l.n.Add(1)
	l.ns.Add(int64(time.Since(start)))
}

// layerTime is one layer's share of an op: its self time summed over every
// span of that name, and the number of calls. Concurrent marks a wait
// span (a name ending in ".wait") and the leaves under it: time spent
// alongside work the op accounts for elsewhere, so the ledger does not
// sum it.
type layerTime struct {
	SelfNS     int64
	Calls      int64
	Concurrent bool
}

func isWait(name string) bool { return strings.HasSuffix(name, ".wait") }

// opLedger computes the self time of every layer in one op. A span's self
// time is its duration minus the union of its child spans' intervals and
// the totals of its leaf aggregates (leaves run sequentially within their
// parent). The root span's self time is reported under its own name.
func (t *tracer) opLedger(op int64) (root *span, layers map[string]*layerTime) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][][2]int64{}
	leafNS := map[int64]int64{}
	layers = map[string]*layerTime{}
	add := func(name string, self, calls int64, concurrent bool) {
		lt := layers[name]
		if lt == nil {
			lt = &layerTime{Concurrent: concurrent}
			layers[name] = lt
		}
		lt.SelfNS += self
		lt.Calls += calls
	}
	waits := map[int64]bool{}
	var spans []*span
	for _, s := range t.spans {
		if s.Op != op {
			continue
		}
		spans = append(spans, s)
		waits[s.ID] = isWait(s.Name)
		if s.Parent == 0 {
			root = s
		} else {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, l := range t.leaves {
		if l.Op != op {
			continue
		}
		leafNS[l.Parent] += l.ns.Load()
		add(l.Name, l.ns.Load(), l.n.Load(), waits[l.Parent])
	}
	for _, s := range spans {
		self := s.End - s.Start - covered(children[s.ID]) - leafNS[s.ID]
		if self < 0 {
			self = 0
		}
		add(s.Name, self, 1, waits[s.ID])
	}
	return root, layers
}

// opWall is an op's duration without its re-drive: root children named
// "*.redrive" repeat work in-process after the op proper to give the
// layers it waited on spans of their own.
func (t *tracer) opWall(op int64) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var root *span
	var redrive int64
	for _, s := range t.spans {
		if s.Op == op && s.Parent == 0 {
			root = s
		}
	}
	if root == nil {
		return 0, false
	}
	for _, s := range t.spans {
		if s.Parent == root.ID && strings.HasSuffix(s.Name, ".redrive") {
			redrive += s.End - s.Start
		}
	}
	return time.Duration(root.End - root.Start - redrive), true
}

// covered is the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// traceEvent is one Chrome trace-event ("X" complete event), loadable in
// Perfetto or chrome://tracing.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// write emits every span and leaf aggregate to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	events := make([]traceEvent, 0, len(t.spans)+len(t.leaves))
	start := map[int64]int64{}
	for _, s := range t.spans {
		start[s.ID] = s.Start
		events = append(events, traceEvent{
			Name: s.Name, Ph: "X", TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: s.Op, Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	for _, l := range t.leaves {
		events = append(events, traceEvent{
			Name: l.Name, Ph: "X", TS: float64(start[l.Parent]) / 1e3, Dur: float64(l.ns.Load()) / 1e3,
			PID: 1, TID: l.Op, Args: map[string]any{"parent": l.Parent, "op": l.Op, "calls": l.n.Load(), "aggregate": true},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
