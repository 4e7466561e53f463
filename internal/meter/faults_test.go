package meter

import (
	"math"
	"math/rand"
	"testing"

	"gpuperf/internal/fault"
)

func testCampaign(t *testing.T, spec string, seed int64) *fault.Campaign {
	t.Helper()
	p, err := fault.ParseProfile(spec)
	if err != nil {
		t.Fatalf("ParseProfile(%q): %v", spec, err)
	}
	return &fault.Campaign{Profile: p, Seed: seed}
}

func flatTrace(watts, seconds float64) Trace {
	return Trace{{Duration: seconds, Watts: watts}}
}

// measureWith runs one measurement of a flat 100 W, 2 s trace under the
// given injector, with deterministic sampling noise.
func measureWith(t *testing.T, in *fault.Injector) (*Measurement, error) {
	t.Helper()
	m := New()
	m.Faults = in
	return m.Measure(flatTrace(100, 2.0), rand.New(rand.NewSource(1)))
}

func TestFaultFreeMeasurementUntouched(t *testing.T) {
	clean, err := measureWith(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A zero-probability campaign must leave the measurement structurally
	// identical: same samples, nil Valid, zero counters.
	zero := testCampaign(t, "meter.drop:0,meter.spike:0,meter.stuck:0", 9)
	got, err := measureWith(t, zero.Injector("m", 0))
	if err != nil {
		t.Fatal(err)
	}
	if got.Valid != nil || got.Dropped+got.Spiked+got.Stuck+got.Interpolated != 0 {
		t.Fatalf("zero-probability campaign degraded the measurement: %+v", got)
	}
	if len(got.Samples) != len(clean.Samples) {
		t.Fatalf("sample count changed: %d vs %d", len(got.Samples), len(clean.Samples))
	}
	for i := range got.Samples {
		if got.Samples[i] != clean.Samples[i] {
			t.Fatalf("sample %d changed: %v vs %v", i, got.Samples[i], clean.Samples[i])
		}
	}
	if got.Confidence() != 1 || got.Degraded() {
		t.Errorf("clean measurement: Confidence=%v Degraded=%v", got.Confidence(), got.Degraded())
	}
}

func TestDropoutInterpolated(t *testing.T) {
	c := testCampaign(t, "meter.drop:0.2", 3)
	got, err := measureWith(t, c.Injector("m", 0))
	if err != nil {
		t.Fatal(err)
	}
	if got.Dropped == 0 {
		t.Fatal("p=0.2 over 40 samples dropped nothing (seed-dependent; pick another seed)")
	}
	if got.Interpolated != got.Dropped {
		t.Errorf("Interpolated=%d, Dropped=%d", got.Interpolated, got.Dropped)
	}
	if got.Valid == nil {
		t.Fatal("degraded measurement has nil Valid mask")
	}
	// Interpolation must keep every reconstructed sample near the true
	// 100 W level — never the raw 0 W a dropout leaves behind.
	for i, w := range got.Samples {
		if w < 50 || w > 150 {
			t.Errorf("sample %d = %v W after interpolation", i, w)
		}
	}
	if !got.Degraded() {
		t.Error("dropouts must mark the measurement degraded")
	}
	wantConf := float64(len(got.Samples)-got.Interpolated) / float64(len(got.Samples))
	if math.Abs(got.Confidence()-wantConf) > 1e-12 {
		t.Errorf("Confidence = %v, want %v", got.Confidence(), wantConf)
	}
	// The reconstructed integral stays close to the true 200 J.
	if math.Abs(got.EnergyJoules-200) > 10 {
		t.Errorf("energy after interpolation = %v J, want ≈200", got.EnergyJoules)
	}
}

func TestSpikeDetectedAndRemoved(t *testing.T) {
	c := testCampaign(t, "meter.spike:0.1", 5)
	got, err := measureWith(t, c.Injector("m", 0))
	if err != nil {
		t.Fatal(err)
	}
	if got.Spiked == 0 {
		t.Fatal("p=0.1 over 40 samples spiked nothing (seed-dependent; pick another seed)")
	}
	for i, w := range got.Samples {
		if w > SpikeThresholdWatts {
			t.Errorf("sample %d = %v W: spike survived detection", i, w)
		}
	}
	if math.Abs(got.AvgWatts-100) > 5 {
		t.Errorf("average after spike removal = %v W, want ≈100", got.AvgWatts)
	}
}

func TestSubThresholdSpikeEvadesDetection(t *testing.T) {
	// A spike magnitude below the plausibility threshold is the documented
	// blind spot: it biases the integral and is NOT flagged.
	c := testCampaign(t, "meter.spike:0.2:500", 5)
	got, err := measureWith(t, c.Injector("m", 0))
	if err != nil {
		t.Fatal(err)
	}
	if got.Spiked != 0 || got.Valid != nil {
		t.Errorf("sub-threshold spikes were detected: Spiked=%d Valid=%v", got.Spiked, got.Valid)
	}
	if got.AvgWatts <= 110 {
		t.Errorf("average = %v W; undetected +500 W spikes at p=0.2 should bias it well above 110", got.AvgWatts)
	}
}

func TestStuckRunDetected(t *testing.T) {
	c := testCampaign(t, "meter.stuck:1:6", 11)
	got, err := measureWith(t, c.Injector("m", 0))
	if err != nil {
		t.Fatal(err)
	}
	// A run of 6 identical readings keeps its first (genuine) sample and
	// invalidates the rest — unless the run started so near the end that
	// it was truncated below the detection minimum of 3.
	if got.Stuck == 0 {
		t.Fatalf("stuck run not detected: %+v", got)
	}
	if got.Stuck > 5 {
		t.Errorf("Stuck = %d, want ≤ run-1 = 5", got.Stuck)
	}
	if got.Interpolated != got.Stuck {
		t.Errorf("Interpolated=%d, Stuck=%d", got.Interpolated, got.Stuck)
	}
}

func TestAllSamplesInvalidIsTransientFault(t *testing.T) {
	c := testCampaign(t, "meter.drop:1", 2)
	_, err := measureWith(t, c.Injector("m", 0))
	if err == nil {
		t.Fatal("certain dropout on every window must fail the measurement")
	}
	if pt, ok := fault.PointOf(err); !ok || pt != fault.MeterDrop {
		t.Errorf("PointOf = %v, %v", pt, ok)
	}
}

func TestMeterFaultDeterminism(t *testing.T) {
	c := testCampaign(t, "meter.drop:0.1,meter.spike:0.05,meter.stuck:0.3:4", 21)
	a, err := measureWith(t, c.Injector("scope", 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := measureWith(t, c.Injector("scope", 0))
	if err != nil {
		t.Fatal(err)
	}
	if a.Dropped != b.Dropped || a.Spiked != b.Spiked || a.Stuck != b.Stuck ||
		a.Interpolated != b.Interpolated || a.EnergyJoules != b.EnergyJoules {
		t.Fatalf("same (seed, scope, attempt) produced different measurements:\n%+v\n%+v", a, b)
	}
	c2, err := measureWith(t, c.Injector("scope", 1))
	if err != nil {
		t.Fatal(err)
	}
	if c2.EnergyJoules == a.EnergyJoules && c2.Interpolated == a.Interpolated &&
		c2.Dropped == a.Dropped && c2.Spiked == a.Spiked {
		t.Error("different attempt produced an identical fault pattern (possible but unlikely)")
	}
}

func TestInterpolateEdges(t *testing.T) {
	s := []float64{0, 0, 10, 20, 0, 30, 0, 0}
	invalid := []bool{true, true, false, false, true, false, true, true}
	interpolate(s, invalid)
	want := []float64{10, 10, 10, 20, 25, 30, 30, 30}
	for i := range want {
		if math.Abs(s[i]-want[i]) > 1e-12 {
			t.Errorf("sample %d = %v, want %v", i, s[i], want[i])
		}
	}
}

func TestPeriodicMeasurementFaults(t *testing.T) {
	// The periodic fast path funnels through the same finalize pipeline.
	c := testCampaign(t, "meter.drop:0.2", 3)
	m := New()
	m.Faults = c.Injector("m", 0)
	p := Tile(Trace{{Duration: 0.5, Watts: 100}}, 4)
	got, err := m.MeasurePeriodic(p, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Dropped == 0 || !got.Degraded() {
		t.Fatalf("periodic path bypassed the fault pipeline: %+v", got)
	}
}
