package meter

import (
	"math"
	"math/rand"
	"sort"
)

// Periodic is a power waveform made of one period's trace tiled a fixed
// number of times — the natural shape of a metered run, which repeats one
// kernel-sequence iteration until the instrument sees enough samples.
// Representing the run this way keeps metering O(period segments +
// samples) where the flat representation costs O(repeats × period
// segments) to even build.
//
// The Period slice is treated as immutable; callers that need to append
// or mutate segments must work on a Flatten()ed copy.
type Periodic struct {
	Period  Trace
	Repeats int
}

// Tile wraps one period repeated n times.
func Tile(period Trace, n int) Periodic { return Periodic{Period: period, Repeats: n} }

// TotalDuration returns the waveform length in seconds.
func (p Periodic) TotalDuration() float64 {
	return p.Period.TotalDuration() * float64(p.Repeats)
}

// TrueEnergy integrates the waveform exactly (diagnostics / oracle).
func (p Periodic) TrueEnergy() float64 {
	return p.Period.TrueEnergy() * float64(p.Repeats)
}

// TrueAvgWatts returns the exact average power of the waveform.
func (p Periodic) TrueAvgWatts() float64 { return p.Period.TrueAvgWatts() }

// Flatten materializes the explicit segment list, merging equal-power
// neighbours exactly as repeated Append calls would have.
func (p Periodic) Flatten() Trace {
	if p.Repeats <= 0 || len(p.Period) == 0 {
		return nil
	}
	out := make(Trace, 0, len(p.Period)*p.Repeats)
	for r := 0; r < p.Repeats; r++ {
		for _, s := range p.Period {
			out = out.Append(s.Duration, s.Watts)
		}
	}
	return out
}

// EnergyUpTo integrates the waveform exactly over [0, t] seconds,
// clamping t to the waveform's duration. Cost: O(log period segments).
func (p Periodic) EnergyUpTo(t float64) float64 {
	d := p.Period.TotalDuration()
	if d <= 0 || p.Repeats <= 0 || t <= 0 {
		return 0
	}
	ends, energy := p.prefix()
	return p.energyAt(t, d, ends, energy)
}

// prefix returns, per period segment, the cumulative end time and
// cumulative energy of the period.
func (p Periodic) prefix() (ends, energy []float64) {
	ends = make([]float64, len(p.Period))
	energy = make([]float64, len(p.Period))
	var t, e float64
	for i, s := range p.Period {
		t += s.Duration
		e += s.Duration * s.Watts
		ends[i] = t
		energy[i] = e
	}
	return ends, energy
}

// prefixInto is prefix computed into the meter's reusable scratch
// buffers — same values, no per-measurement allocation. The slices are
// only valid until the next MeasurePeriodic call on this meter.
func (m *Meter) prefixInto(p Periodic) (ends, energy []float64) {
	if cap(m.scratchEnds) < len(p.Period) {
		m.scratchEnds = make([]float64, len(p.Period))
		m.scratchEnergy = make([]float64, len(p.Period))
	}
	ends = m.scratchEnds[:len(p.Period)]
	energy = m.scratchEnergy[:len(p.Period)]
	var t, e float64
	for i, s := range p.Period {
		t += s.Duration
		e += s.Duration * s.Watts
		ends[i] = t
		energy[i] = e
	}
	return ends, energy
}

// energyAt evaluates the exact integral over [0, t] given the period
// prefix sums (d is the period duration, ends/energy from prefix).
func (p Periodic) energyAt(t, d float64, ends, energy []float64) float64 {
	if t <= 0 {
		return 0
	}
	total := d * float64(p.Repeats)
	if t > total {
		t = total
	}
	k := math.Floor(t / d)
	if k > float64(p.Repeats) {
		k = float64(p.Repeats)
	}
	rem := t - k*d
	if rem < 0 {
		rem = 0
	}
	if rem > d {
		rem = d
	}
	periodEnergy := energy[len(energy)-1]
	e := k * periodEnergy
	if rem == 0 {
		return e
	}
	i := sort.SearchFloat64s(ends, rem)
	if i >= len(ends) {
		i = len(ends) - 1
	}
	var start, before float64
	if i > 0 {
		start = ends[i-1]
		before = energy[i-1]
	}
	return e + before + (rem-start)*p.Period[i].Watts
}

// MeasurePeriodic samples a tiled waveform every SamplePeriod, exactly as
// Measure samples a flat trace, but in O(period segments + samples): each
// 50 ms window's energy is the difference of two exact prefix-integral
// evaluations instead of a segment walk across the whole run. The rng
// drives the identical per-sample noise model; pass nil for an ideal
// instrument.
func (m *Meter) MeasurePeriodic(p Periodic, rng *rand.Rand) (*Measurement, error) {
	d := p.Period.TotalDuration()
	if d <= 0 || p.Repeats <= 0 {
		return nil, ErrTooShort
	}
	total := d * float64(p.Repeats)
	if total < float64(MinSamples)*m.SamplePeriod {
		return nil, ErrTooShort
	}
	n := int(total / m.SamplePeriod) // complete windows only, like the instrument
	out := newMeasurement(n)

	ends, energy := m.prefixInto(p)
	prev := 0.0
	for i := 0; i < n; i++ {
		cur := p.energyAt(float64(i+1)*m.SamplePeriod, d, ends, energy)
		w := (cur - prev) / m.SamplePeriod
		prev = cur
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
