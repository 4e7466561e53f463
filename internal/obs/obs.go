// Package obs is the campaign-wide observability layer: a span/event
// recorder on a deterministic virtual clock plus a metrics registry with
// Prometheus-style text exposition and JSONL event export.
//
// Determinism is the design constraint everything else bends around. The
// paper's sweeps are multi-hour campaigns whose reproduction must stay
// byte-identical at any worker count, so nothing in this package ever
// reads the wall clock into an exported artifact:
//
//   - Timestamps are virtual. Every Track owns a cursor of simulated
//     microseconds advanced explicitly by the instrumented code (kernel
//     durations from the simulator, meter windows, deterministic backoff
//     pauses) — never by time.Now. A track belongs to one unit of work
//     (one sweep job), whose simulated timeline is a pure function of the
//     seed, so its events are identical however the worker pool schedules
//     it.
//   - At export, tracks are sorted by name and laid end to end on one
//     timeline (each track's offset is the summed duration of the tracks
//     before it): the trace reads as the serialized campaign, and the
//     layout is independent of completion order.
//   - Metrics accumulate in integers (counts, fixed-point micro-units),
//     so concurrent increments commute exactly — no float-addition
//     order sensitivity — and the exposition text is sorted by family
//     and label set.
//
// Everything is strictly opt-in and nil-safe: a nil *Recorder (and every
// handle derived from one) turns the entire layer into pointer checks, so
// uninstrumented runs pay no allocations and no locks.
//
// The two constructors differ in what they keep:
//
//   - New keeps every track by name, with its events: the recorder of a
//     batch run, which may write a trace or an event log.
//   - NewTrackFree keeps no track at all: Track returns a fresh
//     event-free track on every call, which only its caller holds. It is
//     gpuperfd's recorder, which serves campaigns for as long as it runs
//     and exports no events, so its tracks must not outlive their jobs.
//
// Cursors still matter without events, because one metric reads one:
// characterize_sim_microseconds_total adds each sweep job's cursor when
// the job ends. So an event-free track advances its cursor exactly as a
// recording one does, and code that instruments a job hands the job's
// *Track down rather than looking it up by name again: under
// NewTrackFree a second lookup returns a second cursor.
package obs

import (
	"math"
	"sort"
	"sync"
)

// Arg is one string-valued event annotation. Args are stored as an ordered
// slice, not a map, so event serialization is deterministic.
type Arg struct {
	Key   string
	Value string
}

// NumArg is one numeric event annotation — counter samples carry these so
// a per-window power reading can be tagged with, e.g., interpolated=1.
type NumArg struct {
	Key   string
	Value float64
}

// Kind discriminates event shapes.
type Kind byte

const (
	// KindSlice is a duration event (a kernel launch, a sweep cell).
	KindSlice Kind = 'X'
	// KindInstant is a point event (a retry, a fault injection, a cache hit).
	KindInstant Kind = 'i'
	// KindCounter is a counter sample (a 50 ms power window).
	KindCounter Kind = 'C'
)

// Event is one recorded trace event in track-local virtual time.
type Event struct {
	Name  string
	Kind  Kind
	Start int64 // virtual microseconds from track origin
	Dur   int64 // microseconds; slices only
	Value float64
	Args  []Arg
	Num   []NumArg
}

// End returns the event's end time (start for non-slices).
func (e *Event) End() int64 { return e.Start + e.Dur }

// Recorder is one campaign's instrumentation sink: a set of virtual-time
// tracks plus a metrics registry. The zero value is not usable; call New
// or NewTrackFree. All methods are safe on a nil receiver and safe for
// concurrent use.
type Recorder struct {
	mu     sync.Mutex
	reg    *Registry
	tracks map[string]*Track // nil: tracks are not kept (NewTrackFree)
}

// New returns an empty recorder that keeps every track and its events.
func New() *Recorder {
	return &Recorder{reg: NewRegistry(), tracks: map[string]*Track{}}
}

// NewTrackFree returns an empty recorder that keeps no track: every
// Track call returns a fresh event-free track, which its caller alone
// holds. Its metrics registry is the only state that outlives a job.
func NewTrackFree() *Recorder {
	return &Recorder{reg: NewRegistry()}
}

// Enabled reports whether a sink is attached.
func (r *Recorder) Enabled() bool { return r != nil }

// Metrics returns the recorder's registry (nil for a nil recorder — every
// registry method is nil-safe in turn).
func (r *Recorder) Metrics() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Track returns (creating if needed) the named virtual timeline. Track
// names sort the export layout, so callers prefix them by campaign phase
// ("fig/GTX 480/backprop", "table4/…") to keep phases contiguous. A
// NewTrackFree recorder returns a new track on every call.
func (r *Recorder) Track(name string) *Track {
	if r == nil {
		return nil
	}
	if r.tracks == nil {
		return &Track{name: name}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tracks[name]
	if t == nil {
		t = &Track{name: name, record: true}
		r.tracks[name] = t
	}
	return t
}

// TrackExport is one track's export snapshot: its events plus the offset
// assigned by the deterministic end-to-end layout.
type TrackExport struct {
	Name     string
	OffsetUS int64
	Events   []Event
}

// Layout snapshots every track sorted by name and assigns each its offset
// on the single export timeline. The result depends only on the recorded
// events, never on creation or completion order.
func (r *Recorder) Layout() []TrackExport {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.tracks))
	for n := range r.tracks {
		names = append(names, n)
	}
	tracks := make([]*Track, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		tracks = append(tracks, r.tracks[n])
	}
	r.mu.Unlock()

	out := make([]TrackExport, 0, len(tracks))
	var offset int64
	for _, t := range tracks {
		t.mu.Lock()
		ev := make([]Event, len(t.events))
		copy(ev, t.events)
		dur := t.cursor
		t.mu.Unlock()
		for i := range ev {
			if end := ev[i].End(); end > dur {
				dur = end
			}
		}
		out = append(out, TrackExport{Name: t.name, OffsetUS: offset, Events: ev})
		offset += dur
	}
	return out
}

// usec converts simulated seconds to virtual microseconds, rounding half
// away from zero so the conversion is reproducible. It is total: NaN maps
// to 0, and a value beyond int64's range (±Inf included) saturates to
// ±math.MaxInt64 by its sign, where a bare conversion's result would be
// left to the platform.
func usec(seconds float64) int64 {
	m := math.Round(seconds * 1e6)
	switch {
	case math.IsNaN(m):
		return 0
	case m >= math.MaxInt64: // float64(math.MaxInt64) is 2⁶³, one past it
		return math.MaxInt64
	case m <= -math.MaxInt64:
		return -math.MaxInt64
	}
	return int64(m)
}

// Track is one virtual timeline: a monotonically advancing cursor of
// simulated microseconds plus, on a New recorder's tracks, the events
// recorded against it. An event-free track moves its cursor exactly as a
// recording one does and drops the events. A track is normally written
// by the single goroutine that owns its unit of work, but all methods
// lock so unforeseen sharing stays race-free. All methods are safe on a
// nil receiver.
type Track struct {
	mu     sync.Mutex
	name   string
	cursor int64
	record bool // events are kept (a New recorder's track)
	events []Event
}

// Name returns the track's name ("" for nil).
func (t *Track) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Recording reports whether the track keeps events, so callers can skip
// building the annotations of events an event-free track would drop.
func (t *Track) Recording() bool { return t != nil && t.record }

// Now returns the cursor in virtual microseconds.
func (t *Track) Now() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cursor
}

// Advance moves the cursor forward by a simulated duration without
// recording an event (e.g. a retry's deterministic backoff pause).
func (t *Track) Advance(seconds float64) {
	if t == nil || seconds <= 0 {
		return
	}
	t.mu.Lock()
	t.cursor += usec(seconds)
	t.mu.Unlock()
}

// Slice records a duration event at the cursor and advances the cursor
// past it.
func (t *Track) Slice(name string, seconds float64, args ...Arg) {
	if t == nil {
		return
	}
	d := usec(seconds)
	if d < 0 {
		d = 0
	}
	t.mu.Lock()
	if t.record {
		t.events = append(t.events, Event{Name: name, Kind: KindSlice, Start: t.cursor, Dur: d, Args: args})
	}
	t.cursor += d
	t.mu.Unlock()
}

// SliceAt records a duration event at an explicit virtual start time
// without moving the cursor — the shape of a parent span whose children
// advanced the cursor already.
func (t *Track) SliceAt(name string, startUS int64, seconds float64, args ...Arg) {
	if !t.Recording() {
		return
	}
	d := usec(seconds)
	if d < 0 {
		d = 0
	}
	t.mu.Lock()
	t.events = append(t.events, Event{Name: name, Kind: KindSlice, Start: startUS, Dur: d, Args: args})
	t.mu.Unlock()
}

// Instant records a point event at the cursor.
func (t *Track) Instant(name string, args ...Arg) {
	if !t.Recording() {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, Event{Name: name, Kind: KindInstant, Start: t.cursor, Args: args})
	t.mu.Unlock()
}

// Sample records a counter sample at the cursor.
func (t *Track) Sample(counter string, v float64, extra ...NumArg) {
	if !t.Recording() {
		return
	}
	t.SampleAt(counter, t.Now(), v, extra...)
}

// SampleAt records a counter sample at an explicit virtual time — the
// meter's 50 ms windows land inside the metered run this way.
func (t *Track) SampleAt(counter string, tsUS int64, v float64, extra ...NumArg) {
	if !t.Recording() {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, Event{Name: counter, Kind: KindCounter, Start: tsUS, Value: v, Num: extra})
	t.mu.Unlock()
}

// Span is an in-progress slice opened by Track.Begin. Every Begin must be
// paired with exactly one End — the obscheck analyzer enforces this
// statically.
type Span struct {
	t     *Track
	name  string
	start int64
	args  []Arg
}

// Begin opens a span at the cursor. The span closes at the cursor's
// position when End is called, so the enclosed instrumentation advances
// the clock for it. An event-free track opens no span: End would only
// record an event.
func (t *Track) Begin(name string, args ...Arg) *Span {
	if !t.Recording() {
		return nil
	}
	return &Span{t: t, name: name, start: t.Now(), args: args}
}

// End closes the span, recording it as a slice from Begin's cursor to the
// current cursor. Extra args are appended to Begin's.
func (s *Span) End(args ...Arg) {
	if s == nil {
		return
	}
	all := s.args
	if len(args) > 0 {
		all = append(append([]Arg(nil), s.args...), args...)
	}
	dur := s.t.Now() - s.start
	if dur < 0 {
		dur = 0
	}
	s.t.SliceAt(s.name, s.start, float64(dur)/1e6, all...)
}
