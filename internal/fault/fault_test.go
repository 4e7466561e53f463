package fault

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func mustParse(t *testing.T, s string) *Profile {
	t.Helper()
	p, err := ParseProfile(s)
	if err != nil {
		t.Fatalf("ParseProfile(%q): %v", s, err)
	}
	return p
}

func TestParseProfile(t *testing.T) {
	p := mustParse(t, " launch.hang:0.02, meter.drop:0.1 , meter.spike:0.05:2500")
	if r, ok := p.Rule(LaunchHang); !ok || r.Probability != 0.02 {
		t.Errorf("launch.hang rule = %+v, %v", r, ok)
	}
	if r, ok := p.Rule(MeterSpike); !ok || r.Param != 2500 {
		t.Errorf("meter.spike rule = %+v, %v", r, ok)
	}
	if _, ok := p.Rule(BootFail); ok {
		t.Error("unconfigured point reported a rule")
	}
	if p.Empty() {
		t.Error("non-empty profile reported Empty")
	}
	if !mustParse(t, "").Empty() || !mustParse(t, "  ").Empty() {
		t.Error("blank spec must parse to an empty profile")
	}
}

func TestParseProfileRejects(t *testing.T) {
	for _, bad := range []string{
		"launch.hang",                     // no probability
		"launch.hang:0.5:1:2",             // too many fields
		"nosuch.point:0.5",                // unknown point
		"meter.degraded:0.5",              // pseudo-point is not injectable
		"launch.hang:1.5",                 // probability > 1
		"launch.hang:-0.1",                // probability < 0
		"launch.hang:NaN",                 // NaN probability
		"launch.hang:x",                   // unparseable probability
		"meter.spike:0.5:-3",              // negative param
		"meter.spike:0.5:1e13",            // absurd param
		"launch.hang:0.5,,",               // empty entry
		"launch.hang:0.5,launch.hang:0.2", // duplicate
	} {
		if _, err := ParseProfile(bad); err == nil {
			t.Errorf("ParseProfile(%q) accepted", bad)
		}
	}
}

func TestProfileCanonicalString(t *testing.T) {
	// String sorts by point and drops zero params; Parse∘String is a
	// fixpoint (the journal's profile-mismatch check depends on it).
	p := mustParse(t, "meter.drop:0.1,launch.hang:0.02,meter.spike:0.05:2500,boot.fail:0")
	want := "boot.fail:0,launch.hang:0.02,meter.drop:0.1,meter.spike:0.05:2500"
	if got := p.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	again := mustParse(t, p.String())
	if again.String() != p.String() {
		t.Errorf("Parse(String()) not a fixpoint: %q vs %q", again.String(), p.String())
	}
}

// TestInjectorDeterminism: same (seed, scope, attempt) ⇒ identical fault
// stream; different seeds, scopes or attempts ⇒ (almost surely) different.
func TestInjectorDeterminism(t *testing.T) {
	c := &Campaign{Profile: mustParse(t, "meter.drop:0.3,launch.hang:0.3"), Seed: 42}
	draw := func(in *Injector) (out []bool) {
		for i := 0; i < 64; i++ {
			out = append(out, in.Hit(MeterDrop))
		}
		return out
	}
	a := draw(c.Injector("GTX 680|backprop|(H-L)", 0))
	b := draw(c.Injector("GTX 680|backprop|(H-L)", 0))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same (seed, scope, attempt) diverged at draw %d", i)
		}
	}
	differs := func(name string, in *Injector) {
		o := draw(in)
		for i := range a {
			if a[i] != o[i] {
				return
			}
		}
		t.Errorf("%s produced an identical 64-draw stream", name)
	}
	differs("different attempt", c.Injector("GTX 680|backprop|(H-L)", 1))
	differs("different scope", c.Injector("GTX 680|backprop|(H-H)", 0))
	c2 := &Campaign{Profile: c.Profile, Seed: 43}
	differs("different seed", c2.Injector("GTX 680|backprop|(H-L)", 0))
}

// TestInjectorPointIndependence: draws at one point never shift another
// point's stream — the property that lets fault passes interleave freely.
func TestInjectorPointIndependence(t *testing.T) {
	c := &Campaign{Profile: mustParse(t, "meter.drop:0.5,meter.spike:0.5"), Seed: 7}
	seq := func(interleave bool) (out []bool) {
		in := c.Injector("scope", 0)
		for i := 0; i < 32; i++ {
			if interleave {
				in.Hit(MeterSpike) // extra draws on a different point
			}
			out = append(out, in.Hit(MeterDrop))
		}
		return out
	}
	plain, mixed := seq(false), seq(true)
	for i := range plain {
		if plain[i] != mixed[i] {
			t.Fatalf("meter.drop stream shifted by meter.spike draws at index %d", i)
		}
	}
}

func TestInjectorNilSafety(t *testing.T) {
	var in *Injector
	if in.Enabled(MeterDrop) || in.Hit(MeterDrop) || in.Fail(MeterDrop, "x") != nil {
		t.Error("nil injector must be inert")
	}
	if got := in.Param(MeterSpike, 9); got != 9 {
		t.Errorf("nil Param = %v, want default", got)
	}
	if in.Intn(MeterStuck, 10) != 0 {
		t.Error("nil Intn must be 0")
	}
	var c *Campaign
	if c.Injector("s", 0) != nil {
		t.Error("nil campaign must yield nil injector")
	}
	empty := &Campaign{Profile: mustParse(t, ""), Seed: 1}
	if empty.Injector("s", 0) != nil {
		t.Error("empty profile must yield nil injector")
	}
}

func TestInjectorCertainAndZero(t *testing.T) {
	c := &Campaign{Profile: mustParse(t, "boot.fail:1,clockset.fail:0"), Seed: 1}
	in := c.Injector("s", 0)
	if !in.Hit(BootFail) {
		t.Error("probability 1 must always hit")
	}
	if in.Hit(ClockSetFail) || in.Enabled(ClockSetFail) {
		t.Error("probability 0 must never hit nor be enabled")
	}
	if !in.Enabled(BootFail) {
		t.Error("probability 1 must be enabled")
	}
}

func TestErrorClassification(t *testing.T) {
	base := &Error{Point: LaunchHang, Scope: "GTX 680|backprop"}
	wrapped := fmt.Errorf("driver: %w", base)
	if !IsTransient(wrapped) {
		t.Error("wrapped injected fault must classify transient")
	}
	if pt, ok := PointOf(wrapped); !ok || pt != LaunchHang {
		t.Errorf("PointOf = %v, %v", pt, ok)
	}
	real := errors.New("invalid pair")
	if IsTransient(real) {
		t.Error("plain error classified transient")
	}
	if _, ok := PointOf(real); ok {
		t.Error("plain error yielded a point")
	}
	inner := errors.New("checksum mismatch")
	che := &Error{Point: BiosBitFlip, Err: inner}
	if !errors.Is(che, inner) {
		t.Error("Unwrap must expose the underlying error")
	}
}

func TestBackoff(t *testing.T) {
	r := &Resilience{}
	for attempt := 0; attempt < 8; attempt++ {
		d := r.Backoff("scope", attempt)
		ideal := DefaultBackoffBase << attempt
		if ideal > DefaultBackoffMax {
			ideal = DefaultBackoffMax
		}
		if d < ideal/2 || d >= ideal {
			t.Errorf("attempt %d: backoff %v outside [%v, %v)", attempt, d, ideal/2, ideal)
		}
		if d2 := r.Backoff("scope", attempt); d2 != d {
			t.Errorf("attempt %d: backoff not deterministic (%v vs %v)", attempt, d, d2)
		}
	}
	if r.Backoff("other-scope", 3) == r.Backoff("scope", 3) {
		t.Log("jitter collision across scopes (possible but unlikely)")
	}
	// nil Resilience still produces a sane default pause.
	var nilr *Resilience
	if d := nilr.Backoff("s", 2); d <= 0 || d > DefaultBackoffMax {
		t.Errorf("nil backoff = %v", d)
	}
	if nilr.Attempts() != 1 {
		t.Errorf("nil Attempts = %d, want 1", nilr.Attempts())
	}
}

func TestPauseUsesInjectedSleep(t *testing.T) {
	var slept []time.Duration
	r := &Resilience{Sleep: func(d time.Duration) { slept = append(slept, d) }}
	r.Pause("s", 0)
	r.Pause("s", 1)
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
	if slept[0] <= 0 {
		t.Errorf("first pause %v", slept[0])
	}
}

func TestLaunchContext(t *testing.T) {
	r := &Resilience{LaunchTimeout: time.Millisecond}
	ctx, cancel := r.LaunchContext(context.Background())
	defer cancel()
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("watchdog context never expired")
	}

	var nilr *Resilience
	ctx2, cancel2 := nilr.LaunchContext(nil)
	defer cancel2()
	if ctx2.Done() != nil {
		// context.Background().Done() is nil; the unarmed watchdog must
		// not spuriously cancel anything.
		select {
		case <-ctx2.Done():
			t.Fatal("unarmed watchdog context is already done")
		default:
		}
	}
}

func TestValidateHarness(t *testing.T) {
	if err := ValidateHarness(1, 0, time.Second); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for _, bad := range []struct {
		workers, retries int
		timeout          time.Duration
	}{
		{0, 0, time.Second},
		{-3, 0, time.Second},
		{1, -1, time.Second},
		{1, 0, 0},
		{1, 0, -time.Second},
	} {
		if ValidateHarness(bad.workers, bad.retries, bad.timeout) == nil {
			t.Errorf("ValidateHarness(%d, %d, %v) accepted", bad.workers, bad.retries, bad.timeout)
		}
	}
}

func TestResilienceAttempts(t *testing.T) {
	if got := (&Resilience{MaxRetries: 3}).Attempts(); got != 4 {
		t.Errorf("Attempts = %d, want 4", got)
	}
	if got := (&Resilience{MaxRetries: 0}).Attempts(); got != 1 {
		t.Errorf("Attempts = %d, want 1", got)
	}
}
