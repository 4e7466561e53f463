package obs

import (
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
	mu    sync.Mutex
	fams  map[string]*family
	order *order // exposition order as of the last Snapshot; nil once a series is added
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
	// sorted is series in label order as of the last Snapshot, nil once a
	// series is added. Snapshots share it, so it is replaced, never
	// changed in place.
	sorted []*series
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
		f.sorted = nil
		r.order = nil
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

// appendMicro appends a fixed-point micro-unit value as a decimal with
// trailing zeros trimmed (deterministic: pure integer formatting).
func appendMicro(b []byte, mic int64) []byte {
	u := uint64(mic)
	if mic < 0 {
		b = append(b, '-')
		u = -u
	}
	b = strconv.AppendUint(b, u/1e6, 10)
	frac := u % 1e6
	if frac != 0 {
		b = append(b, '.')
	}
	for d := uint64(1e5); frac != 0; d /= 10 {
		b = append(b, byte('0'+frac/d))
		frac %= d
	}
	return b
}

// order is a registry's exposition order: families sorted by name, each
// family's series sorted by rendered label string. Snapshots share it,
// so it is immutable once built; the first Snapshot after a registration
// builds a new one, re-sorting only the families that gained a series.
type order struct {
	fams  []famOrder
	nvals int // values one snapshot copies
}

type famOrder struct {
	f      *family // read only for the fields fixed at registration
	series []*series
}

// stride is the values a snapshot copies per series of the family: the
// value, or a histogram's count, sum and bucket counts (+Inf included).
func (f *family) stride() int {
	if f.kind == "histogram" {
		return len(f.buckets) + 3
	}
	return 1
}

// exposition returns the registry's order, building it if a series was
// added since the last call. The caller holds r.mu.
func (r *Registry) exposition() *order {
	if r.order != nil {
		return r.order
	}
	fams := make([]famOrder, 0, len(r.fams))
	nvals := 0
	for _, f := range r.fams {
		if f.sorted == nil {
			ss := make([]*series, 0, len(f.series))
			for _, s := range f.series {
				ss = append(ss, s)
			}
			sort.Slice(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })
			f.sorted = ss
		}
		fams = append(fams, famOrder{f: f, series: f.sorted})
		nvals += f.stride() * len(f.sorted)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].f.name < fams[j].f.name })
	r.order = &order{fams: fams, nvals: nvals}
	return r.order
}

// Snapshot is an immutable point-in-time copy of a registry's values:
// every counter and gauge value and every histogram count, sum and
// bucket count, each read atomically, in one slice laid out in the
// registry's exposition order. The order itself (families sorted by
// name, series by rendered label string) is not copied: the registry
// keeps it and rebuilds it, as a new value, only on the first Snapshot
// after a series is added, so every snapshot holding it renders the
// series it was taken with. It is the scrape-safe read path — a live
// /metrics handler renders a Snapshot while campaigns keep registering
// series and bumping counters — and the only path the artifact writer
// uses too, so live and artifact expositions are byte-identical by
// construction.
type Snapshot struct {
	order *order
	vals  []int64 // per series in order: its value, or a histogram's count, sum and bucket counts
}

// Snapshot takes the exposition order under the registry lock and then
// copies the values. The disabled-sink fast path is untouched: a nil
// registry snapshots to nil, and the handles' atomic updates never take
// this lock.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	o := r.exposition()
	r.mu.Unlock()
	vals := make([]int64, 0, o.nvals)
	for _, fo := range o.fams {
		hist := fo.f.kind == "histogram"
		for _, s := range fo.series {
			vals = append(vals, atomic.LoadInt64(&s.val))
			if hist {
				vals = append(vals, atomic.LoadInt64(&s.sumMic))
				for i := range s.bucket {
					vals = append(vals, atomic.LoadInt64(&s.bucket[i]))
				}
			}
		}
	}
	return &Snapshot{order: o, vals: vals}
}

// Total sums every series of a family in the snapshot, mirroring
// Registry.Total.
func (s *Snapshot) Total(name string) (total int64, ok bool) {
	if s == nil {
		return 0, false
	}
	vals := s.vals
	for _, fo := range s.order.fams {
		stride := fo.f.stride()
		n := stride * len(fo.series)
		if fo.f.name == name {
			for i := 0; i < n; i += stride {
				total += vals[i]
			}
			return total, true
		}
		vals = vals[n:]
	}
	return 0, false
}

// renderBuf is the size of the one buffer a render writes through. A
// render hands it to the writer once it is half full, so the exposition
// reaches the writer in chunks and is never held whole; only a series
// longer than half the buffer grows it.
const renderBuf = 16 << 10

// WriteText renders the snapshot's Prometheus text exposition: families
// sorted by name, series sorted by rendered label string, histogram
// buckets cumulative.
//
//gpulint:deterministic
func (s *Snapshot) WriteText(w io.Writer) error {
	if s == nil {
		return nil
	}
	b := make([]byte, 0, renderBuf)
	vals := s.vals
	for _, fo := range s.order.fams {
		f := fo.f
		b = append(b, "# HELP "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.help...)
		b = append(b, "\n# TYPE "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.kind...)
		b = append(b, '\n')
		stride := f.stride()
		for _, sr := range fo.series {
			switch {
			case f.kind == "histogram":
				b = appendHistogram(b, f, sr.labels, vals[:stride])
			case f.micro:
				b = appendMicro(appendName(b, f.name, "", sr.labels), vals[0])
				b = append(b, '\n')
			default:
				b = strconv.AppendInt(appendName(b, f.name, "", sr.labels), vals[0], 10)
				b = append(b, '\n')
			}
			vals = vals[stride:]
			if len(b) >= renderBuf/2 {
				if _, err := w.Write(b); err != nil {
					return err
				}
				b = b[:0]
			}
		}
	}
	if len(b) == 0 {
		return nil
	}
	_, err := w.Write(b)
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

// appendName appends a sample's name, its suffix, its labels in braces
// if it has any, and the space before its value.
func appendName(b []byte, name, suffix, labels string) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	if labels != "" {
		b = append(b, '{')
		b = append(b, labels...)
		b = append(b, '}')
	}
	return append(b, ' ')
}

// appendHistogram appends one histogram series with cumulative buckets
// from its snapshot values: count, sum, then one count per bucket.
func appendHistogram(b []byte, f *family, labels string, v []int64) []byte {
	var cum int64
	for i, n := range v[2:] {
		cum += n
		b = append(b, f.name...)
		b = append(b, "_bucket{"...)
		if labels != "" {
			b = append(b, labels...)
			b = append(b, ',')
		}
		b = append(b, `le="`...)
		if i < len(f.buckets) {
			b = strconv.AppendFloat(b, f.buckets[i], 'g', -1, 64)
		} else {
			b = append(b, "+Inf"...)
		}
		b = append(b, `"} `...)
		b = strconv.AppendInt(b, cum, 10)
		b = append(b, '\n')
	}
	b = appendMicro(appendName(b, f.name, "_sum", labels), v[1])
	b = append(b, '\n')
	b = strconv.AppendInt(appendName(b, f.name, "_count", labels), v[0], 10)
	return append(b, '\n')
}
