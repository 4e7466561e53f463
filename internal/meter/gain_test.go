package meter

import (
	"math"
	"testing"
)

// TestGainScalesReadings: a calibration gain scales every reading on both
// measurement paths, and the zero value means a perfectly calibrated
// channel.
func TestGainScalesReadings(t *testing.T) {
	trace := Trace{{0.5, 100}, {0.5, 140}}
	ref := New()
	ref.NoiseStdDev = 0
	want, err := ref.Measure(trace, nil)
	if err != nil {
		t.Fatal(err)
	}

	m := New()
	m.NoiseStdDev = 0
	m.Gain = 1.05
	got, err := m.Measure(trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Samples {
		if math.Abs(got.Samples[i]-1.05*want.Samples[i]) > 1e-9 {
			t.Fatalf("flat sample %d = %g, want %g", i, got.Samples[i], 1.05*want.Samples[i])
		}
	}
	if math.Abs(got.AvgWatts-1.05*want.AvgWatts) > 1e-9 {
		t.Fatalf("AvgWatts = %g, want %g", got.AvgWatts, 1.05*want.AvgWatts)
	}

	p := Tile(trace, 1)
	pref, err := ref.MeasurePeriodic(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := m.MeasurePeriodic(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pg.Samples {
		if math.Abs(pg.Samples[i]-1.05*pref.Samples[i]) > 1e-9 {
			t.Fatalf("periodic sample %d = %g, want %g", i, pg.Samples[i], 1.05*pref.Samples[i])
		}
	}

	// Zero gain is the calibrated channel: identical to the reference.
	z := New()
	z.NoiseStdDev = 0
	zm, err := z.Measure(trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	if zm.AvgWatts != want.AvgWatts {
		t.Fatalf("zero gain changed AvgWatts: %g vs %g", zm.AvgWatts, want.AvgWatts)
	}
}
