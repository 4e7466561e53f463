// Package meter simulates the Yokogawa WT1600 digital power meter the paper
// uses (Section II-C): it observes the machine's wall power as a piecewise-
// constant trace, samples voltage×current every 50 ms, and derives average
// power and accumulated energy from the samples — including the sampling
// noise and quantization a real instrument adds. The paper sizes its runs
// so every measurement covers at least 10 samples (≥ 500 ms); the harness
// does the same.
package meter

import (
	"errors"
	"math/rand"
	"sync"

	"gpuperf/internal/fault"
	"gpuperf/internal/obs"
)

// DefaultSamplePeriod is the WT1600's 50 ms update interval.
const DefaultSamplePeriod = 0.050

// DefaultNoiseStdDev is the per-sample measurement noise in watts. The
// WT1600 is a precision instrument; at a few hundred watts full scale its
// basic accuracy works out to roughly a watt of per-reading uncertainty.
const DefaultNoiseStdDev = 1.2

// MinSamples is the paper's floor of sample points per measurement.
const MinSamples = 10

// Segment is a stretch of constant wall power.
type Segment struct {
	Duration float64 // seconds
	Watts    float64
}

// Trace is a piecewise-constant wall-power waveform.
type Trace []Segment

// TotalDuration returns the trace length in seconds.
func (t Trace) TotalDuration() float64 {
	var d float64
	for _, s := range t {
		d += s.Duration
	}
	return d
}

// TrueEnergy integrates the trace exactly (diagnostics / oracle).
func (t Trace) TrueEnergy() float64 {
	var e float64
	for _, s := range t {
		e += s.Duration * s.Watts
	}
	return e
}

// TrueAvgWatts returns the exact average power of the trace.
func (t Trace) TrueAvgWatts() float64 {
	d := t.TotalDuration()
	if d == 0 {
		return 0
	}
	return t.TrueEnergy() / d
}

// Append adds a segment, merging with the previous one when the power level
// is identical (keeps long repeated-kernel traces compact).
func (t Trace) Append(duration, watts float64) Trace {
	if duration <= 0 {
		return t
	}
	if n := len(t); n > 0 && t[n-1].Watts == watts { //gpulint:ignore unitsafety -- segments merge only on bit-identical power levels
		t[n-1].Duration += duration
		return t
	}
	return append(t, Segment{duration, watts})
}

// Measurement is what the instrument reports for one observed run.
type Measurement struct {
	Samples      []float64 // per-50ms power readings, watts
	AvgWatts     float64   // mean of samples
	EnergyJoules float64   // sample-integrated energy
	Duration     float64   // observed duration, seconds

	// Valid flags, per sample, whether the reading is genuine (true) or
	// was reconstructed by interpolation after a detected instrument
	// fault (false). nil — the common case — means every sample is
	// genuine; the slice is only allocated when a fault actually fired,
	// so fault-free measurements stay structurally identical to runs
	// without any fault campaign attached.
	Valid []bool
	// Per-measurement fault accounting (all zero on a clean measurement):
	// how many samples were dropped, spiked or stuck, and how many were
	// filled in by interpolation (= the number of false entries in Valid).
	Dropped      int
	Spiked       int
	Stuck        int
	Interpolated int
}

// Degraded reports whether any sample had to be reconstructed — the
// energy integral then carries interpolation error on top of noise.
func (m *Measurement) Degraded() bool { return m.Interpolated > 0 }

// Confidence is the fraction of genuine samples backing the integral:
// 1 for a clean measurement, approaching 0 as reconstruction dominates.
func (m *Measurement) Confidence() float64 {
	if m.Valid == nil || len(m.Samples) == 0 {
		return 1
	}
	return float64(len(m.Samples)-m.Interpolated) / float64(len(m.Samples))
}

// Meter is a configured instrument.
type Meter struct {
	SamplePeriod float64
	NoiseStdDev  float64
	// Gain is the channel's calibration gain: every reading (noise
	// included) is scaled by it, modeling the per-instrument calibration
	// drift a real fleet of meters exhibits.
	// Zero means 1.0 — a perfectly calibrated channel — so existing
	// meters and all single-board goldens are untouched. The fleet
	// generator draws each device's gain from its jitter profile.
	Gain float64
	// Faults, when non-nil, injects instrument failures (sample dropout,
	// transient spikes, stuck readings) into every measurement — see
	// faults.go. The injector's streams are independent of the sampling-
	// noise rng, so attaching a zero-probability campaign changes nothing.
	Faults *fault.Injector
	// Obs, when non-nil, receives per-measurement counts (windows taken,
	// dropped, spiked, stuck, interpolated). The handles are nil-safe, so
	// a partially populated Obs is fine.
	Obs *Obs
	// Fanout, when non-nil, streams every finalized sample of every
	// successful measurement — the live-telemetry tap a collector hangs
	// off the instrument. It observes samples after the fault pipeline
	// (valid=false marks interpolated reconstructions) and must not
	// mutate anything the measurement owns; it never affects the
	// measurement itself, so artifacts are byte-identical with or
	// without a fanout attached.
	Fanout SampleFanout

	// Period prefix-sum scratch reused across MeasurePeriodic calls. A
	// Meter is single-goroutine (it already shares the caller's rng), so
	// plain fields suffice — this removes two allocations from every
	// metered run, the campaign stack's per-cell hot path.
	scratchEnds   []float64
	scratchEnergy []float64
}

// SampleFanout receives one finalized sample: its window index within
// the measurement, the measured watts, and whether the reading is
// genuine (false: reconstructed by interpolation).
type SampleFanout func(index int, watts float64, valid bool)

// Obs holds the metric handles a harness wires into the instrument (the
// driver registers them per board — see driver.Device.Observe). A nil Obs
// means the meter is unobserved and pays only a pointer check.
type Obs struct {
	Measurements *obs.Counter // measurements finalized
	Samples      *obs.Counter // sampling windows taken
	Dropped      *obs.Counter // windows lost to sample dropout
	Spiked       *obs.Counter // windows hit by transient spikes
	Stuck        *obs.Counter // windows flagged as stuck-ADC repeats
	Interpolated *obs.Counter // windows reconstructed by interpolation
}

// New returns a WT1600-like meter on auto-range.
func New() *Meter {
	return &Meter{SamplePeriod: DefaultSamplePeriod, NoiseStdDev: DefaultNoiseStdDev}
}

// ErrTooShort is returned when a trace covers fewer than MinSamples
// sampling periods — the same constraint that makes the paper stretch
// sub-500 ms benchmarks by repeating their kernels.
var ErrTooShort = errors.New("meter: trace shorter than the minimum sampling window")

// measurementPool recycles Measurement structs and their sample storage.
// Metered sweeps produce one Measurement per cell and read only a few
// scalars from most of them; recycling the ~100-entry sample slices is a
// measurable share of the campaign hot path's garbage.
var measurementPool = sync.Pool{New: func() any { return new(Measurement) }}

// newMeasurement returns a zeroed Measurement whose Samples slice has
// capacity for n readings, reusing pooled storage when available.
func newMeasurement(n int) *Measurement {
	out := measurementPool.Get().(*Measurement)
	if cap(out.Samples) < n {
		out.Samples = make([]float64, 0, n)
	}
	*out = Measurement{Samples: out.Samples[:0]}
	return out
}

// ReleaseMeasurement returns a Measurement to the internal pool. Only the
// sole owner may call it — typically a harness that has copied the summary
// scalars out of a metered run and is about to drop the result — and the
// Measurement must not be touched afterwards. Releasing is optional;
// unreleased Measurements are ordinary garbage.
func ReleaseMeasurement(m *Measurement) {
	if m == nil {
		return
	}
	measurementPool.Put(m)
}

// Measure samples the trace every SamplePeriod and reports average power
// and energy. The rng drives per-sample gaussian noise; pass nil for an
// ideal (noise-free) instrument.
func (m *Meter) Measure(trace Trace, rng *rand.Rand) (*Measurement, error) {
	total := trace.TotalDuration()
	if total < float64(MinSamples)*m.SamplePeriod {
		return nil, ErrTooShort
	}
	n := int(total / m.SamplePeriod) // complete windows only, like the instrument
	out := newMeasurement(n)

	seg, segUsed := 0, 0.0
	for i := 0; i < n; i++ {
		// Integrate true power over this 50 ms window.
		remaining := m.SamplePeriod
		var joules float64
		for remaining > 1e-15 && seg < len(trace) {
			avail := trace[seg].Duration - segUsed
			step := avail
			if step > remaining {
				step = remaining
			}
			joules += step * trace[seg].Watts
			segUsed += step
			remaining -= step
			if segUsed >= trace[seg].Duration-1e-15 {
				seg++
				segUsed = 0
			}
		}
		w := joules / m.SamplePeriod
		if rng != nil && m.NoiseStdDev > 0 {
			w += m.NoiseStdDev * rng.NormFloat64()
		}
		if m.Gain != 0 {
			w *= m.Gain
		}
		out.Samples = append(out.Samples, w)
	}
	return m.finalize(out)
}

// finalize applies the instrument-fault pipeline (no-op without an
// injector) and derives the summary statistics from the surviving
// samples. Shared by Measure and MeasurePeriodic.
func (m *Meter) finalize(out *Measurement) (*Measurement, error) {
	err := m.injectFaults(out)
	if o := m.Obs; o != nil {
		o.Measurements.Inc()
		o.Samples.Add(int64(len(out.Samples)))
		o.Dropped.Add(int64(out.Dropped))
		o.Spiked.Add(int64(out.Spiked))
		o.Stuck.Add(int64(out.Stuck))
		o.Interpolated.Add(int64(out.Interpolated))
	}
	if err != nil {
		return nil, err
	}
	var sum float64
	for _, w := range out.Samples {
		sum += w
	}
	out.AvgWatts = sum / float64(len(out.Samples))
	out.Duration = float64(len(out.Samples)) * m.SamplePeriod
	out.EnergyJoules = sum * m.SamplePeriod
	if f := m.Fanout; f != nil {
		for i, w := range out.Samples {
			f(i, w, out.Valid == nil || out.Valid[i])
		}
	}
	return out, nil
}
