package meter

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTraceAppendMerges(t *testing.T) {
	var tr Trace
	tr = tr.Append(0.1, 200)
	tr = tr.Append(0.2, 200)
	tr = tr.Append(0.1, 250)
	tr = tr.Append(0, 300) // zero-duration segments are dropped
	if len(tr) != 2 {
		t.Fatalf("trace has %d segments, want 2 (merged)", len(tr))
	}
	if !close(tr[0].Duration, 0.3) || tr[0].Watts != 200 {
		t.Errorf("merged segment = %+v", tr[0])
	}
	if !close(tr.TotalDuration(), 0.4) {
		t.Errorf("TotalDuration = %g, want 0.4", tr.TotalDuration())
	}
}

func TestTrueEnergyAndAverage(t *testing.T) {
	tr := Trace{{0.5, 100}, {0.5, 300}}
	if got := tr.TrueEnergy(); !close(got, 200) {
		t.Errorf("TrueEnergy = %g, want 200", got)
	}
	if got := tr.TrueAvgWatts(); !close(got, 200) {
		t.Errorf("TrueAvgWatts = %g, want 200", got)
	}
	var empty Trace
	if got := empty.TrueAvgWatts(); got != 0 {
		t.Errorf("empty TrueAvgWatts = %g, want 0", got)
	}
}

func TestMeasureConstantTraceExact(t *testing.T) {
	m := New()
	tr := Trace{{1.0, 250}}
	meas, err := m.Measure(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(meas.Samples) != 20 {
		t.Fatalf("%d samples over 1 s, want 20", len(meas.Samples))
	}
	if !close(meas.AvgWatts, 250) {
		t.Errorf("AvgWatts = %g, want 250", meas.AvgWatts)
	}
	if !close(meas.EnergyJoules, 250) {
		t.Errorf("Energy = %g J, want 250", meas.EnergyJoules)
	}
}

func TestMeasureRejectsShortTrace(t *testing.T) {
	m := New()
	if _, err := m.Measure(Trace{{0.3, 100}}, nil); err != ErrTooShort {
		t.Errorf("Measure(0.3 s) err = %v, want ErrTooShort", err)
	}
	// Exactly 10 windows is acceptable.
	if _, err := m.Measure(Trace{{0.5, 100}}, nil); err != nil {
		t.Errorf("Measure(0.5 s) err = %v, want nil", err)
	}
}

func TestMeasureStepTrace(t *testing.T) {
	// A step from 100 W to 300 W halfway: the sampled energy must match
	// the true integral (noise-free) for window-aligned steps.
	m := New()
	tr := Trace{{0.5, 100}, {0.5, 300}}
	meas, err := m.Measure(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !close(meas.EnergyJoules, tr.TrueEnergy()) {
		t.Errorf("Energy = %g, want %g", meas.EnergyJoules, tr.TrueEnergy())
	}
	// First and last samples see the two levels.
	if !close(meas.Samples[0], 100) || !close(meas.Samples[19], 300) {
		t.Errorf("edge samples = %g, %g; want 100, 300", meas.Samples[0], meas.Samples[19])
	}
}

func TestMeasureUnalignedSegmentIntegration(t *testing.T) {
	// Segments not aligned to the 50 ms grid must be integrated within
	// windows: 75 ms at 100 W then 925 ms at 200 W → window 1 (50ms) is
	// 100 W, window 2 averages 25ms@100 + 25ms@200 = 150 W.
	m := New()
	tr := Trace{{0.075, 100}, {0.925, 200}}
	meas, err := m.Measure(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !close(meas.Samples[0], 100) {
		t.Errorf("sample 0 = %g, want 100", meas.Samples[0])
	}
	if !close(meas.Samples[1], 150) {
		t.Errorf("sample 1 = %g, want 150", meas.Samples[1])
	}
	if !close(meas.Samples[2], 200) {
		t.Errorf("sample 2 = %g, want 200", meas.Samples[2])
	}
}

func TestMeasureNoiseIsZeroMeanAndDeterministic(t *testing.T) {
	m := New()
	tr := Trace{{60.0, 200}} // 1200 samples
	a, err := m.Measure(tr, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := m.Measure(tr, rand.New(rand.NewSource(11)))
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("same seed produced different samples")
		}
	}
	// Noise averages out: mean within ±0.5 W of truth over 1200 samples.
	if math.Abs(a.AvgWatts-200) > 0.5 {
		t.Errorf("noisy AvgWatts = %g, want ≈ 200", a.AvgWatts)
	}
}

func TestMeasurePartialTailIgnored(t *testing.T) {
	// 0.52 s → 10 complete windows; the 20 ms tail is not counted,
	// exactly like an instrument reporting complete updates only.
	m := New()
	meas, err := m.Measure(Trace{{0.52, 100}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(meas.Samples) != 10 {
		t.Errorf("%d samples, want 10", len(meas.Samples))
	}
	if !close(meas.Duration, 0.5) {
		t.Errorf("Duration = %g, want 0.5", meas.Duration)
	}
}

func TestMeasureEnergyMatchesTruthProperty(t *testing.T) {
	// Property: for any piecewise trace ≥ 0.5 s, noise-free sampled
	// energy over the observed window never exceeds the true energy of
	// the whole trace and is within one window's worth of it.
	m := New()
	f := func(d1, d2, d3 uint16, w1, w2, w3 uint8) bool {
		tr := Trace{}
		tr = tr.Append(0.2+float64(d1%1000)/1000, 50+float64(w1))
		tr = tr.Append(0.2+float64(d2%1000)/1000, 50+float64(w2))
		tr = tr.Append(0.2+float64(d3%1000)/1000, 50+float64(w3))
		meas, err := m.Measure(tr, nil)
		if err != nil {
			return false
		}
		truth := tr.TrueEnergy()
		if meas.EnergyJoules > truth+1e-9 {
			return false
		}
		// Unobserved tail < one window at max power.
		maxW := 0.0
		for _, s := range tr {
			if s.Watts > maxW {
				maxW = s.Watts
			}
		}
		return truth-meas.EnergyJoules <= m.SamplePeriod*maxW+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func close(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }

func TestAutoRangeNeverOverloads(t *testing.T) {
	m := New()
	meas, err := m.Measure(Trace{{1.0, 5000}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !close(meas.AvgWatts, 5000) {
		t.Errorf("auto-range avg %g, want 5000", meas.AvgWatts)
	}
}

func TestFanoutStreamsEverySample(t *testing.T) {
	m := New()
	m.NoiseStdDev = 0
	var got []float64
	var invalid int
	m.Fanout = func(i int, w float64, valid bool) {
		if i != len(got) {
			t.Fatalf("fanout index %d out of order (have %d)", i, len(got))
		}
		got = append(got, w)
		if !valid {
			invalid++
		}
	}
	trace := Trace{}.Append(1.0, 200)
	meas, err := m.Measure(trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(meas.Samples) {
		t.Fatalf("fanout saw %d samples, measurement has %d", len(got), len(meas.Samples))
	}
	for i, w := range meas.Samples {
		if got[i] != w {
			t.Fatalf("sample %d: fanout %g != measurement %g", i, got[i], w)
		}
	}
	if invalid != 0 {
		t.Fatalf("clean measurement reported %d invalid samples", invalid)
	}
}

func TestFanoutDoesNotChangeMeasurement(t *testing.T) {
	// Attaching a fanout must leave the measurement bit-identical — the
	// live tap is invisible to the artifact path.
	trace := Trace{}.Append(0.3, 150).Append(0.4, 320).Append(0.3, 90)
	run := func(attach bool) *Measurement {
		m := New()
		if attach {
			m.Fanout = func(int, float64, bool) {}
		}
		meas, err := m.Measure(trace, nil)
		if err != nil {
			t.Fatal(err)
		}
		return meas
	}
	a, b := run(false), run(true)
	if a.AvgWatts != b.AvgWatts || a.EnergyJoules != b.EnergyJoules || len(a.Samples) != len(b.Samples) {
		t.Fatalf("fanout perturbed the measurement: %+v vs %+v", a, b)
	}
}
