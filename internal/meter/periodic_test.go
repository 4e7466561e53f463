package meter

import (
	"math"
	"math/rand"
	"testing"
)

// An asymmetric period that does not divide the 50 ms sample window, so
// sample boundaries land inside segments and across period boundaries.
func testPeriod() Trace {
	var p Trace
	p = p.Append(0.013, 140)
	p = p.Append(0.007, 95)
	p = p.Append(0.021, 210.5)
	p = p.Append(0.004, 95)
	return p
}

func TestPeriodicInvariants(t *testing.T) {
	period := testPeriod()
	for _, n := range []int{1, 3, 17, 128} {
		p := Tile(period, n)
		flat := p.Flatten()
		if got, want := p.TotalDuration(), flat.TotalDuration(); math.Abs(got-want) > 1e-12*want {
			t.Errorf("n=%d: TotalDuration %g, flat %g", n, got, want)
		}
		if got, want := p.TrueEnergy(), flat.TrueEnergy(); math.Abs(got-want) > 1e-9*want {
			t.Errorf("n=%d: TrueEnergy %g, flat %g", n, got, want)
		}
		if got, want := p.TrueAvgWatts(), flat.TrueAvgWatts(); math.Abs(got-want) > 1e-9*want {
			t.Errorf("n=%d: TrueAvgWatts %g, flat %g", n, got, want)
		}
		// Full-span integral must equal the total energy.
		if got, want := p.EnergyUpTo(p.TotalDuration()+1), p.TrueEnergy(); math.Abs(got-want) > 1e-9*want {
			t.Errorf("n=%d: EnergyUpTo(total) %g, TrueEnergy %g", n, got, want)
		}
	}
}

// TestFlattenMergesLikeAppend: tiling a period whose last and first power
// levels are equal must merge across the seam, exactly as repeated Append
// calls would.
func TestFlattenMergesLikeAppend(t *testing.T) {
	var period Trace
	period = period.Append(0.01, 95) // equal to the tail → seams merge
	period = period.Append(0.02, 150)
	period = period.Append(0.01, 95)
	flat := Tile(period, 3).Flatten()
	// 3 repeats × 3 segments, minus 2 merged seams.
	if len(flat) != 7 {
		t.Fatalf("flattened into %d segments, want 7 (seams must merge)", len(flat))
	}
	for i := 1; i < len(flat); i++ {
		if flat[i].Watts == flat[i-1].Watts {
			t.Fatalf("segments %d and %d share a power level — unmerged", i-1, i)
		}
	}
}

func TestEnergyUpToMatchesSegmentWalk(t *testing.T) {
	period := testPeriod()
	p := Tile(period, 11)
	flat := p.Flatten()
	// Walk the flat trace for the oracle integral at assorted times,
	// including segment boundaries and mid-period points.
	times := []float64{0, 1e-9, 0.013, 0.02, 0.045, 0.0451, 0.09, 0.23456, p.TotalDuration(), p.TotalDuration() * 2}
	for _, tm := range times {
		var want, acc float64
		for _, s := range flat {
			if acc+s.Duration <= tm {
				want += s.Duration * s.Watts
				acc += s.Duration
				continue
			}
			if tm > acc {
				want += (tm - acc) * s.Watts
			}
			acc = tm
			break
		}
		if got := p.EnergyUpTo(tm); math.Abs(got-want) > 1e-9*(1+want) {
			t.Errorf("EnergyUpTo(%g) = %g, want %g", tm, got, want)
		}
	}
}

// TestMeasurePeriodicMatchesMeasure is the fast-path correctness claim:
// sampling the tiled representation must agree with sampling the flat
// trace, window by window (ideal instrument; the noise stream is identical
// by construction since both draw one NormFloat64 per sample).
func TestMeasurePeriodicMatchesMeasure(t *testing.T) {
	m := New()
	period := testPeriod()
	for _, n := range []int{12, 57, 400} {
		p := Tile(period, n)
		got, err := m.MeasurePeriodic(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.Measure(p.Flatten(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Samples) != len(want.Samples) {
			t.Fatalf("n=%d: %d samples, want %d", n, len(got.Samples), len(want.Samples))
		}
		for i := range want.Samples {
			if math.Abs(got.Samples[i]-want.Samples[i]) > 1e-9 {
				t.Fatalf("n=%d: sample %d = %.15g, want %.15g", n, i, got.Samples[i], want.Samples[i])
			}
		}
		if math.Abs(got.AvgWatts-want.AvgWatts) > 1e-9 {
			t.Errorf("n=%d: AvgWatts %g, want %g", n, got.AvgWatts, want.AvgWatts)
		}
		if math.Abs(got.EnergyJoules-want.EnergyJoules) > 1e-9 {
			t.Errorf("n=%d: EnergyJoules %g, want %g", n, got.EnergyJoules, want.EnergyJoules)
		}
		if got.Duration != want.Duration {
			t.Errorf("n=%d: Duration %g, want %g", n, got.Duration, want.Duration)
		}
	}
}

// TestMeasurePeriodicNoiseStream: with the same seed both paths must draw
// the identical noise sequence (one NormFloat64 per sample).
func TestMeasurePeriodicNoiseStream(t *testing.T) {
	m := New()
	p := Tile(testPeriod(), 60)
	got, err := m.MeasurePeriodic(p, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Measure(p.Flatten(), rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Samples {
		if math.Abs(got.Samples[i]-want.Samples[i]) > 1e-9 {
			t.Fatalf("noisy sample %d = %.15g, want %.15g", i, got.Samples[i], want.Samples[i])
		}
	}
}

func TestMeasurePeriodicTooShort(t *testing.T) {
	m := New()
	if _, err := m.MeasurePeriodic(Tile(testPeriod(), 2), nil); err != ErrTooShort {
		t.Errorf("90 ms waveform: err = %v, want ErrTooShort", err)
	}
	if _, err := m.MeasurePeriodic(Tile(nil, 5), nil); err != ErrTooShort {
		t.Errorf("empty period: err = %v, want ErrTooShort", err)
	}
	if _, err := m.MeasurePeriodic(Tile(testPeriod(), 0), nil); err != ErrTooShort {
		t.Errorf("zero repeats: err = %v, want ErrTooShort", err)
	}
}

// TestMeasurePeriodicAllocsPinned pins the pooled metering hot path: once
// the meter's prefix scratch and the measurement pool are warm, a
// measure/release cycle must not allocate per run. The budget of 1
// tolerates a GC emptying the pool mid-measurement; the unpooled path
// cost 3+ (Measurement, Samples, two prefix slices).
func TestMeasurePeriodicAllocsPinned(t *testing.T) {
	m := New()
	p := Tile(testPeriod(), 200)
	rng := rand.New(rand.NewSource(7))
	// Warm the pool and the prefix scratch.
	for i := 0; i < 4; i++ {
		got, err := m.MeasurePeriodic(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		ReleaseMeasurement(got)
	}
	allocs := testing.AllocsPerRun(50, func() {
		got, err := m.MeasurePeriodic(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		ReleaseMeasurement(got)
	})
	if allocs > 1 {
		t.Fatalf("MeasurePeriodic allocates %.1f objects per pooled run, want <= 1", allocs)
	}
}

// TestReleaseMeasurementReuse: a released Measurement's storage must come
// back zeroed — no stale samples, flags or fault accounting may leak from
// the previous owner, and nil releases must be harmless.
func TestReleaseMeasurementReuse(t *testing.T) {
	ReleaseMeasurement(nil)
	stale := newMeasurement(8)
	stale.Samples = append(stale.Samples, 1, 2, 3)
	stale.Dropped = 5
	stale.Valid = []bool{false}
	ReleaseMeasurement(stale)
	fresh := newMeasurement(2)
	if len(fresh.Samples) != 0 || fresh.Dropped != 0 || fresh.Valid != nil {
		t.Fatalf("recycled Measurement not zeroed: %+v", fresh)
	}
	if cap(fresh.Samples) < 2 {
		t.Fatalf("recycled Samples capacity %d, want >= 2", cap(fresh.Samples))
	}
}

// BenchmarkMeasurePeriodic meters one sweep cell's trace: a 45 ms kernel
// period tiled to about 5 s, 100 samples. /release hands each
// Measurement back to the pool, as the sweep and the collector do;
// /norelease drops it, so every run allocates the Measurement and its
// sample slice afresh.
func BenchmarkMeasurePeriodic(b *testing.B) {
	p := Tile(testPeriod(), 112)
	for _, release := range []bool{true, false} {
		name := "norelease"
		if release {
			name = "release"
		}
		b.Run(name, func(b *testing.B) {
			m := New()
			rng := rand.New(rand.NewSource(7))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := m.MeasurePeriodic(p, rng)
				if err != nil {
					b.Fatal(err)
				}
				if release {
					ReleaseMeasurement(got)
				}
			}
		})
	}
}
