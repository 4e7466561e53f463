package obs

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// The frozen reference renderer: the snapshot tree and fmt-based text
// exposition that recorded every metrics golden, kept verbatim (only
// renamed) so the tests can hold the streamed render to it byte for
// byte. It must never call Snapshot, WriteText or the append helpers —
// a shared code path would make the comparison vacuous. It reads the
// registry's families and series maps under the registry lock, as the
// old Snapshot did.

type refSnapshot struct {
	fams []refFamSnap
}

type refFamSnap struct {
	name    string
	help    string
	kind    string
	micro   bool
	buckets []float64
	series  []refSeriesSnap
}

type refSeriesSnap struct {
	labels string
	val    int64
	sumMic int64
	bucket []int64
}

// refSnapshotOf copies the registry under its lock.
func refSnapshotOf(r *Registry) *refSnapshot {
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
	snap := &refSnapshot{fams: make([]refFamSnap, 0, len(names))}
	for _, n := range names {
		f := r.fams[n]
		fs := refFamSnap{name: f.name, help: f.help, kind: f.kind, micro: f.micro, buckets: f.buckets}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fs.series = make([]refSeriesSnap, 0, len(keys))
		for _, k := range keys {
			s := f.series[k]
			ss := refSeriesSnap{
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

// refFormatMicro renders a fixed-point micro-unit sum as a decimal with
// trailing zeros trimmed (deterministic: pure integer formatting).
func refFormatMicro(mic int64) string {
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

// refFormatLe renders a bucket bound the way Prometheus does.
func refFormatLe(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// refWriteText renders the snapshot's Prometheus text exposition.
func (s *refSnapshot) refWriteText(w io.Writer) error {
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
				refWriteHistogram(&b, f, sr)
			case f.micro:
				if sr.labels == "" {
					fmt.Fprintf(&b, "%s %s\n", f.name, refFormatMicro(sr.val))
				} else {
					fmt.Fprintf(&b, "%s{%s} %s\n", f.name, sr.labels, refFormatMicro(sr.val))
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

// refWriteHistogram renders one histogram series with cumulative buckets.
func refWriteHistogram(b *strings.Builder, f *refFamSnap, s *refSeriesSnap) {
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
		fmt.Fprintf(b, "%s_bucket{%s} %d\n", f.name, join(`le="`+refFormatLe(le)+`"`), cum)
	}
	cum += s.bucket[len(f.buckets)]
	fmt.Fprintf(b, "%s_bucket{%s} %d\n", f.name, join(`le="+Inf"`), cum)
	if lbl := join(""); lbl == "" {
		fmt.Fprintf(b, "%s_sum %s\n", f.name, refFormatMicro(s.sumMic))
		fmt.Fprintf(b, "%s_count %d\n", f.name, s.val)
	} else {
		fmt.Fprintf(b, "%s_sum{%s} %s\n", f.name, lbl, refFormatMicro(s.sumMic))
		fmt.Fprintf(b, "%s_count{%s} %d\n", f.name, lbl, s.val)
	}
}

// refRender renders a registry through the frozen reference.
func refRender(t *testing.T, reg *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := refSnapshotOf(reg).refWriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// render renders a registry through Snapshot and WriteText.
func render(t *testing.T, reg *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.Snapshot().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// awkwardLabelValues are label values the text format must escape, or
// that sort next to each other only by their escaped bytes.
var awkwardLabelValues = []string{
	`C:\temp`, `say "hi"`, "line1\nline2", `\"` + "\n", "", "GTX 480", "GTX 480#0001", "z",
}

// randomRegistry registers and updates a registry from one seed: a few
// families of each kind, unlabelled or with one to three labels, one
// series or many, awkward label values, and values that cover negative,
// whole, trailing-zero and 19-digit micro-units.
func randomRegistry(seed int64) *Registry {
	rng := rand.New(rand.NewSource(seed))
	reg := NewRegistry()
	label := func(i int) []Label {
		var ls []Label
		for k := 0; k < rng.Intn(4); k++ {
			v := awkwardLabelValues[rng.Intn(len(awkwardLabelValues))]
			if rng.Intn(2) == 0 {
				v = fmt.Sprintf("%s-%d", v, i)
			}
			ls = append(ls, L(fmt.Sprintf("k%d", k), v))
		}
		return ls
	}
	micro := func() float64 {
		switch rng.Intn(5) {
		case 0:
			return float64(rng.Intn(2000) - 1000) // whole
		case 1:
			return float64(rng.Intn(2000)-1000) / 8 // trailing zeros after the cut
		case 2:
			return -rng.Float64() * 1e6
		case 3:
			return (rng.Float64()*2 - 1) * 1e12 // 19-digit micro-units
		default:
			return rng.NormFloat64() * 1e3
		}
	}
	for f := 0; f < 1+rng.Intn(8); f++ {
		name := fmt.Sprintf("fam%c_%d", 'a'+rng.Intn(26), f)
		series := 1
		if rng.Intn(2) == 0 {
			series = 1 + rng.Intn(300)
		}
		kind := rng.Intn(4)
		buckets := []float64{0.5, 1, 2.5, 10, 1e3, 1e21}[:1+rng.Intn(6)]
		for i := 0; i < series; i++ {
			ls := label(i)
			switch kind {
			case 0:
				reg.Counter(name, "a counter", ls...).Add(rng.Int63n(1 << 40))
			case 1:
				reg.Gauge(name, `a gauge \ with "help"`, ls...).Set(rng.Int63n(1<<40) - 1<<39)
			case 2:
				reg.FloatGauge(name, "a float gauge", ls...).Set(micro())
			default:
				h := reg.Histogram(name, "a histogram", buckets, ls...)
				for n := rng.Intn(5); n > 0; n-- {
					h.Observe(micro())
				}
			}
		}
	}
	return reg
}

// TestRenderMatchesReference: the streamed render writes exactly the
// frozen reference's bytes, for the empty registry, the golden's kinds
// and generated registries large enough to take several buffer flushes.
func TestRenderMatchesReference(t *testing.T) {
	check := func(name string, reg *Registry) {
		t.Helper()
		if got, want := render(t, reg), refRender(t, reg); got != want {
			t.Errorf("%s: render differs from the reference:\n--- got ---\n%s--- want ---\n%s", name, got, want)
		}
	}
	check("empty", NewRegistry())

	reg := NewRegistry()
	reg.Counter("esc_total", "help", L("path", `C:\temp`), L("q", `say "hi"`)).Inc()
	reg.Counter("esc_total", "help", L("path", "line1\nline2")).Add(7)
	reg.Gauge("solo_gauge", "one series").Set(-12)
	for _, v := range []float64{-0.5, 3, 2.5, 1.25, 0.000001, -1234.5678, 0, 1e9} {
		reg.FloatGauge("micro_watts", "watts", L("v", fmt.Sprint(v))).Set(v)
	}
	reg.Histogram("plain_hist", "no labels", []float64{0.5, 0.9}).Observe(0.75)
	h := reg.Histogram("lab_hist", "labelled", []float64{1, 1e-7, 250}, L("device", "GTX 480"), L("scope", "gpu"))
	for _, v := range []float64{-3, 0.5, 120, 251, 1e-8} {
		h.Observe(v)
	}
	check("kinds", reg)

	for seed := int64(1); seed <= 200; seed++ {
		check(fmt.Sprintf("seed %d", seed), randomRegistry(seed))
	}
	big := scrapeRegistry()
	if got, want := render(t, big), refRender(t, big); got != want {
		t.Error("serve-sized registry: render differs from the reference")
	}
}

// TestWriteTextStopsOnWriteError: a render hands the writer's first error
// back and writes nothing after it.
func TestWriteTextStopsOnWriteError(t *testing.T) {
	boom := errors.New("client gone")
	writes := 0
	w := writerFunc(func(p []byte) (int, error) {
		writes++
		return 0, boom
	})
	if err := scrapeRegistry().Snapshot().WriteText(w); !errors.Is(err, boom) {
		t.Fatalf("WriteText = %v, want %v", err, boom)
	}
	if writes != 1 {
		t.Fatalf("render kept writing after an error: %d writes", writes)
	}
}
