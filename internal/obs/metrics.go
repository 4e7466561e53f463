package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric label pair. Labels are rendered in the order given
// at registration, so every call site for a family must use the same
// order (the handles are cached, so in practice each series is rendered
// once).
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Registry is a process-local metric registry. All values are integers —
// counters and gauges directly, histogram sums in fixed-point micro-units
// — so concurrent updates commute exactly and the exposition text is a
// pure function of the multiset of updates. All methods are nil-safe.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: map[string]*family{}} }

type family struct {
	name    string
	help    string
	kind    string // "counter" | "gauge" | "histogram"
	micro   bool   // value is fixed-point micro-units (FloatGauge)
	buckets []float64
	series  map[string]*series
}

type series struct {
	labels string // rendered `a="b",c="d"` form, "" for none
	val    int64  // counter/gauge value; histogram observation count
	sumMic int64  // histogram sum in micro-units
	bucket []int64
}

// labelEscaper escapes label values per the Prometheus text format. A
// strings.Replacer is safe for concurrent use, so one serves every call.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// renderLabels renders labels in the canonical `k="v"` comma form,
// escaping per the Prometheus text format.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// seriesFor returns (creating if needed) the family and its series for
// the given labels. The family's kind and help are set on first
// registration and left untouched after.
func (r *Registry) seriesFor(name, help, kind string, buckets []float64, labels []Label) *series {
	return r.seriesForMicro(name, help, kind, false, buckets, labels)
}

func (r *Registry) seriesForMicro(name, help, kind string, micro bool, buckets []float64, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, micro: micro, buckets: buckets, series: map[string]*series{}}
		r.fams[name] = f
	}
	key := renderLabels(labels)
	s := f.series[key]
	if s == nil {
		s = &series{labels: key}
		if f.kind == "histogram" {
			s.bucket = make([]int64, len(f.buckets)+1) // +1 for +Inf
		}
		f.series[key] = s
	}
	return s
}

// Counter is a monotonically increasing integer. Nil-safe.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored).
func (c *Counter) Add(n int64) {
	if c == nil || c.s == nil || n <= 0 {
		return
	}
	atomic.AddInt64(&c.s.val, n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil || c.s == nil {
		return 0
	}
	return atomic.LoadInt64(&c.s.val)
}

// Gauge is a settable integer. Nil-safe.
type Gauge struct{ s *series }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil || g.s == nil {
		return
	}
	atomic.StoreInt64(&g.s.val, v)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil || g.s == nil {
		return 0
	}
	return atomic.LoadInt64(&g.s.val)
}

// FloatGauge is a settable fractional gauge stored in fixed-point
// micro-units — the exposition renders a deterministic decimal (the same
// formatting histogram sums use), and updates stay single integer atomics
// so concurrent Sets commute with scrapes. Nil-safe.
type FloatGauge struct{ s *series }

// Set stores v (quantized to micro-units).
func (g *FloatGauge) Set(v float64) {
	if g == nil || g.s == nil {
		return
	}
	atomic.StoreInt64(&g.s.val, usec(v))
}

// Value returns the current value in micro-units.
func (g *FloatGauge) Value() int64 {
	if g == nil || g.s == nil {
		return 0
	}
	return atomic.LoadInt64(&g.s.val)
}

// Histogram is a fixed-bucket distribution. Observations are recorded as
// integer bucket counts plus a fixed-point micro-unit sum, keeping the
// exposition independent of observation order. Nil-safe.
type Histogram struct {
	s       *series
	buckets []float64
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if h == nil || h.s == nil {
		return
	}
	i := sort.SearchFloat64s(h.buckets, v) // first bucket with le >= v
	atomic.AddInt64(&h.s.bucket[i], 1)
	atomic.AddInt64(&h.s.sumMic, usec(v))
	atomic.AddInt64(&h.s.val, 1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil || h.s == nil {
		return 0
	}
	return atomic.LoadInt64(&h.s.val)
}

// Counter returns (registering if needed) a counter handle. Handles are
// cheap to hold and must be fetched on init/constructor paths only — the
// obscheck analyzer enforces this so registration cost stays off hot
// loops.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return &Counter{s: r.seriesFor(name, help, "counter", nil, labels)}
}

// Gauge returns (registering if needed) a gauge handle.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return &Gauge{s: r.seriesFor(name, help, "gauge", nil, labels)}
}

// FloatGauge returns (registering if needed) a fractional gauge handle
// (exposed as a gauge, stored in fixed-point micro-units).
func (r *Registry) FloatGauge(name, help string, labels ...Label) *FloatGauge {
	if r == nil {
		return nil
	}
	return &FloatGauge{s: r.seriesForMicro(name, help, "gauge", true, nil, labels)}
}

// Histogram returns (registering if needed) a histogram handle with the
// given upper bucket bounds (an implicit +Inf bucket is appended).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	bs := append([]float64(nil), buckets...)
	sort.Float64s(bs)
	return &Histogram{s: r.seriesFor(name, help, "histogram", bs, labels), buckets: bs}
}

// CounterVec is a counter family whose one free label is bound at use
// time (e.g. fault_injections_total{point=…}). The vec itself is
// registered on a constructor path; With only materializes series.
type CounterVec struct {
	reg        *Registry
	name, help string
	key        string
	fixed      []Label

	mu     sync.Mutex
	cached map[string]*Counter
}

// CounterVec returns a counter family keyed by one dynamic label (after
// any fixed labels).
func (r *Registry) CounterVec(name, help, labelKey string, fixed ...Label) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{reg: r, name: name, help: help, key: labelKey, fixed: fixed, cached: map[string]*Counter{}}
}

// With returns the counter for one value of the dynamic label.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.cached[value]
	if c == nil {
		labels := append(append([]Label(nil), v.fixed...), Label{Key: v.key, Value: value})
		c = &Counter{s: v.reg.seriesFor(v.name, v.help, "counter", nil, labels)}
		v.cached[value] = c
	}
	return c
}

// Total sums every series of a family: counter/gauge values, or the
// observation count for a histogram. ok is false if the family does not
// exist.
func (r *Registry) Total(name string) (total int64, ok bool) {
	if r == nil {
		return 0, false
	}
	// The whole walk holds the registry lock: concurrent registrations
	// mutate f.series, and iterating it unlocked races them. Series values
	// are still read atomically, so in-flight Inc/Add/Set commute.
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		return 0, false
	}
	for _, s := range f.series {
		total += atomic.LoadInt64(&s.val)
	}
	return total, true
}

// formatMicro renders a fixed-point micro-unit sum as a decimal with
// trailing zeros trimmed (deterministic: pure integer formatting).
func formatMicro(mic int64) string {
	neg := mic < 0
	if neg {
		mic = -mic
	}
	whole, frac := mic/1e6, mic%1e6
	s := strconv.FormatInt(whole, 10)
	if frac != 0 {
		fs := fmt.Sprintf("%06d", frac)
		fs = strings.TrimRight(fs, "0")
		s += "." + fs
	}
	if neg {
		s = "-" + s
	}
	return s
}

// formatLe renders a bucket bound the way Prometheus does.
func formatLe(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Snapshot is an immutable point-in-time copy of a registry: families
// sorted by name, series sorted by rendered label string, every value
// read atomically. It is the scrape-safe read path — a live /metrics
// handler renders a Snapshot while campaigns keep registering series and
// bumping counters — and the only path the artifact writer uses too, so
// live and artifact expositions are byte-identical by construction.
type Snapshot struct {
	fams []famSnap
}

type famSnap struct {
	name    string
	help    string
	kind    string
	micro   bool
	buckets []float64
	series  []seriesSnap
}

type seriesSnap struct {
	labels string
	val    int64
	sumMic int64
	bucket []int64
}

// Snapshot copies the registry under its lock. The disabled-sink fast
// path is untouched: a nil registry snapshots to nil, and the handles'
// atomic updates never take this lock.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	snap := &Snapshot{fams: make([]famSnap, 0, len(names))}
	for _, n := range names {
		f := r.fams[n]
		fs := famSnap{name: f.name, help: f.help, kind: f.kind, micro: f.micro, buckets: f.buckets}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fs.series = make([]seriesSnap, 0, len(keys))
		for _, k := range keys {
			s := f.series[k]
			ss := seriesSnap{
				labels: s.labels,
				val:    atomic.LoadInt64(&s.val),
				sumMic: atomic.LoadInt64(&s.sumMic),
			}
			if s.bucket != nil {
				ss.bucket = make([]int64, len(s.bucket))
				for i := range s.bucket {
					ss.bucket[i] = atomic.LoadInt64(&s.bucket[i])
				}
			}
			fs.series = append(fs.series, ss)
		}
		snap.fams = append(snap.fams, fs)
	}
	return snap
}

// Total sums every series of a family in the snapshot, mirroring
// Registry.Total.
func (s *Snapshot) Total(name string) (total int64, ok bool) {
	if s == nil {
		return 0, false
	}
	for i := range s.fams {
		if s.fams[i].name != name {
			continue
		}
		for j := range s.fams[i].series {
			total += s.fams[i].series[j].val
		}
		return total, true
	}
	return 0, false
}

// WriteText renders the snapshot's Prometheus text exposition: families
// sorted by name, series sorted by rendered label string, histogram
// buckets cumulative.
//
//gpulint:deterministic
func (s *Snapshot) WriteText(w io.Writer) error {
	if s == nil {
		return nil
	}
	var b strings.Builder
	for i := range s.fams {
		f := &s.fams[i]
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for j := range f.series {
			sr := &f.series[j]
			switch {
			case f.kind == "histogram":
				writeHistogram(&b, f, sr)
			case f.micro:
				if sr.labels == "" {
					fmt.Fprintf(&b, "%s %s\n", f.name, formatMicro(sr.val))
				} else {
					fmt.Fprintf(&b, "%s{%s} %s\n", f.name, sr.labels, formatMicro(sr.val))
				}
			default:
				if sr.labels == "" {
					fmt.Fprintf(&b, "%s %d\n", f.name, sr.val)
				} else {
					fmt.Fprintf(&b, "%s{%s} %d\n", f.name, sr.labels, sr.val)
				}
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteText writes the Prometheus text exposition through a point-in-time
// Snapshot, so writing is safe concurrently with registrations and
// updates — a mid-campaign scrape and the end-of-campaign artifact use
// the identical render path.
//
//gpulint:deterministic
func (r *Registry) WriteText(w io.Writer) error {
	return r.Snapshot().WriteText(w)
}

// writeHistogram renders one histogram series with cumulative buckets.
func writeHistogram(b *strings.Builder, f *famSnap, s *seriesSnap) {
	var cum int64
	join := func(extra string) string {
		if s.labels == "" {
			return extra
		}
		if extra == "" {
			return s.labels
		}
		return s.labels + "," + extra
	}
	for i, le := range f.buckets {
		cum += s.bucket[i]
		fmt.Fprintf(b, "%s_bucket{%s} %d\n", f.name, join(`le="`+formatLe(le)+`"`), cum)
	}
	cum += s.bucket[len(f.buckets)]
	fmt.Fprintf(b, "%s_bucket{%s} %d\n", f.name, join(`le="+Inf"`), cum)
	if lbl := join(""); lbl == "" {
		fmt.Fprintf(b, "%s_sum %s\n", f.name, formatMicro(s.sumMic))
		fmt.Fprintf(b, "%s_count %d\n", f.name, s.val)
	} else {
		fmt.Fprintf(b, "%s_sum{%s} %s\n", f.name, lbl, formatMicro(s.sumMic))
		fmt.Fprintf(b, "%s_count{%s} %d\n", f.name, lbl, s.val)
	}
}
