package collector

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"gpuperf/internal/obs"
	"gpuperf/internal/power"
)

// TestNewSeedsIdleGaugesForEveryScope: right after construction, before
// any campaign sample, the exposition carries gpuperf_power_watts for
// all three scopes on every device, at the idle breakdown.
func TestNewSeedsIdleGaugesForEveryScope(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := New(reg, []string{"GTX 480", "GTX 680"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, dev := range []string{"GTX 480", "GTX 680"} {
		idle := c.Idle(dev)
		if idle.GPU <= 0 || idle.Memory <= 0 {
			t.Fatalf("%s: idle breakdown not positive: %+v", dev, idle)
		}
		for _, sc := range power.Scopes() {
			want := `gpuperf_power_watts{device="` + dev + `",scope="` + string(sc) + `"}`
			if !strings.Contains(got, want) {
				t.Errorf("exposition missing %s:\n%s", want, got)
			}
		}
	}
	if err := obs.ValidateExposition(strings.NewReader(got)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
}

// TestSamplePowerUpdatesGaugesHistogramsAndRing covers the sample path:
// known devices update all three scopes and the bounded ring, before and
// after the window fills; unknown devices are counted and dropped.
func TestSamplePowerUpdatesGaugesHistogramsAndRing(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := New(reg, []string{"GTX 480"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Recent("GTX 480", power.ScopeGPU); got != nil {
		t.Fatalf("empty window = %v, want nil", got)
	}
	for i := 0; i < 3; i++ {
		c.SamplePower("GTX 480", power.Breakdown{GPU: 100 + float64(i), Memory: 40})
	}
	if got := c.Recent("GTX 480", power.ScopeGPU); !reflect.DeepEqual(got, []float64{100, 101, 102}) {
		t.Fatalf("partly filled window = %v, want [100 101 102]", got)
	}
	// Recent hands out a copy: writing to it leaves the window intact.
	c.Recent("GTX 480", power.ScopeGPU)[0] = -1
	if got := c.Recent("GTX 480", power.ScopeGPU); got[0] != 100 {
		t.Fatalf("caller's write reached the window: %v", got)
	}
	for i := 3; i < 10; i++ {
		c.SamplePower("GTX 480", power.Breakdown{GPU: 100 + float64(i), Memory: 40})
	}
	c.SamplePower("Radeon HD 5870", power.Breakdown{GPU: 1, Memory: 1})

	ring := c.Recent("GTX 480", power.ScopeGPU)
	if len(ring) != 4 {
		t.Fatalf("retention not bounded: %d samples kept, want 4", len(ring))
	}
	if !reflect.DeepEqual(ring, []float64{106, 107, 108, 109}) {
		t.Fatalf("ring not oldest-first window: %v", ring)
	}
	if mod := c.Recent("GTX 480", power.ScopeModule); mod[3] != 149 {
		t.Fatalf("module ring = %v, want last 149", mod)
	}
	if c.Recent("nope", power.ScopeGPU) != nil {
		t.Fatal("unknown device returned a ring")
	}

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		`gpuperf_power_watts{device="GTX 480",scope="gpu"} 109`,
		`gpuperf_power_watts{device="GTX 480",scope="memory"} 40`,
		`gpuperf_power_watts{device="GTX 480",scope="module"} 149`,
		`gpuperf_power_samples_total{device="GTX 480"} 10`,
		`gpuperf_power_samples_dropped_total 1`,
	} {
		if !strings.Contains(got, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
	if !strings.Contains(got, `gpuperf_power_watts_hist_count{device="GTX 480",scope="gpu"} 10`) {
		t.Errorf("histogram count missing:\n%s", got)
	}
}

// TestIdleHeartbeatReseedsQuietDevices: after two quiet ticks the gauge
// returns to idle; a device that keeps sampling is left alone.
func TestIdleHeartbeatReseedsQuietDevices(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := New(reg, []string{"GTX 480"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	c.SamplePower("GTX 480", power.Breakdown{GPU: 200, Memory: 80})
	c.Start(time.Millisecond)
	defer c.Stop()

	idle := c.Idle("GTX 480")
	deadline := time.After(5 * time.Second)
	for {
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(b.String(),
			`gpuperf_power_watts{device="GTX 480",scope="module"} `+trimFloat(idle.Module())) {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("gauge never returned to idle %.6f:\n%s", idle.Module(), b.String())
		case <-time.After(time.Millisecond):
		}
	}
}

// trimFloat renders a watts value the way the micro-unit gauge does.
func trimFloat(v float64) string {
	reg := obs.NewRegistry()
	reg.FloatGauge("x", "x").Set(v)
	var b strings.Builder
	_ = reg.WriteText(&b)
	line := strings.Split(b.String(), "\n")[2] // HELP, TYPE, series
	return strings.TrimPrefix(line, "x ")
}

// TestNewRejectsBadFleets pins the constructor's validation.
func TestNewRejectsBadFleets(t *testing.T) {
	if _, err := New(nil, []string{"GTX 480"}, 0); err == nil {
		t.Error("nil registry accepted")
	}
	if _, err := New(obs.NewRegistry(), nil, 0); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := New(obs.NewRegistry(), []string{"GTX 480", "GTX 480"}, 0); err == nil {
		t.Error("duplicate board accepted")
	}
	if _, err := New(obs.NewRegistry(), []string{"Voodoo 2"}, 0); err == nil {
		t.Error("unknown board accepted")
	}
}

// BenchmarkSamplePower is one campaign sample into a full default-depth
// window: the per-sample cost must not grow with the retention, and the
// path must not allocate.
func BenchmarkSamplePower(b *testing.B) {
	c, err := New(obs.NewRegistry(), []string{"GTX 480"}, 0)
	if err != nil {
		b.Fatal(err)
	}
	bd := power.Breakdown{GPU: 120, Memory: 40}
	for i := 0; i < DefaultRetention; i++ {
		c.SamplePower("GTX 480", bd)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SamplePower("GTX 480", bd)
	}
}
