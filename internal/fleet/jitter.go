// Package fleet scales a campaign from the paper's four boards to a
// population: a deterministic fleet generator (per-device parameter
// jitter on the V–f curves, leakage and meter calibration), a sharded
// orchestrator that partitions devices across worker shards — each with
// its own checkpoint journal — and a streaming aggregator whose folds
// are associative and commutative in exact integer arithmetic, so the
// final fleet report at a fixed seed is byte-identical regardless of
// shard count, worker count or row arrival order.
package fleet

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// JitterProfile describes per-device manufacturing and instrumentation
// spread: each field is a symmetric relative half-width (0.03 means
// ±3%), drawn uniformly per device from the fleet seed. All fields must
// lie in [0, 1].
type JitterProfile struct {
	// CoreVolt scales both ends of the core V–f curve by one common
	// factor per device — silicon binning spread. Scaling high and low
	// together preserves the spec's voltage ordering invariants.
	CoreVolt float64
	// MemVolt is the memory-domain analogue.
	MemVolt float64
	// VExp perturbs the voltage-interpolation exponent (clamped to ≥ 1),
	// the shape of the binning curve between the endpoints.
	VExp float64
	// Leak scales leakage and idle power (core + memory domains) — the
	// process-corner spread that dominates chip-to-chip power variation.
	Leak float64
	// Meter is the per-device power-meter calibration gain drift
	// (meter.Meter.Gain = 1 ± Meter·u).
	Meter float64
}

// jitterKeys maps the canonical spec keys to profile fields, in
// canonical order.
var jitterKeys = []string{"corevolt", "memvolt", "vexp", "leak", "meter"}

func (p *JitterProfile) field(key string) *float64 {
	switch key {
	case "corevolt":
		return &p.CoreVolt
	case "memvolt":
		return &p.MemVolt
	case "vexp":
		return &p.VExp
	case "leak":
		return &p.Leak
	case "meter":
		return &p.Meter
	}
	return nil
}

// DefaultJitter is the spread a mixed retail population plausibly shows:
// a few percent of voltage binning, noticeable leakage spread, and
// sub-percent instrument drift.
func DefaultJitter() JitterProfile {
	return JitterProfile{CoreVolt: 0.03, MemVolt: 0.02, VExp: 0.05, Leak: 0.08, Meter: 0.01}
}

// jitterPresets are the named profiles ParseJitterProfile accepts.
var jitterPresets = map[string]JitterProfile{
	"":        DefaultJitter(),
	"default": DefaultJitter(),
	"none":    {},
	"tight":   {CoreVolt: 0.01, MemVolt: 0.01, VExp: 0.02, Leak: 0.03, Meter: 0.005},
	"loose":   {CoreVolt: 0.06, MemVolt: 0.04, VExp: 0.10, Leak: 0.15, Meter: 0.02},
}

// ParseJitterProfile parses a jitter spec: either a preset name
// ("default", "none", "tight", "loose"; empty means default) or a
// comma-separated key:fraction list over corevolt, memvolt, vexp, leak
// and meter — e.g. "corevolt:0.03,leak:0.08". Omitted keys are zero.
// Every fraction must lie in [0, 1]; anything else is an error, which
// cliflags surfaces under the exit-2 contract.
func ParseJitterProfile(s string) (JitterProfile, error) {
	if p, ok := jitterPresets[strings.TrimSpace(s)]; ok {
		return p, nil
	}
	if !strings.Contains(s, ":") {
		return JitterProfile{}, fmt.Errorf("fleet: jitter %q: unknown preset (have %s)", s, strings.Join(PresetNames(), ", "))
	}
	var p JitterProfile
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, ":")
		if !ok {
			return JitterProfile{}, fmt.Errorf("fleet: jitter %q: term %q is not key:fraction", s, part)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		f := p.field(key)
		if f == nil {
			return JitterProfile{}, fmt.Errorf("fleet: jitter %q: unknown key %q (have %s)", s, key, strings.Join(jitterKeys, ", "))
		}
		if seen[key] {
			return JitterProfile{}, fmt.Errorf("fleet: jitter %q: duplicate key %q", s, key)
		}
		seen[key] = true
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return JitterProfile{}, fmt.Errorf("fleet: jitter %q: %q is not a number", s, val)
		}
		*f = v
	}
	if err := p.Validate(); err != nil {
		return JitterProfile{}, err
	}
	return p, nil
}

// Validate checks every spread lies in [0, 1].
func (p JitterProfile) Validate() error {
	q := p
	for _, key := range jitterKeys {
		v := *q.field(key)
		if v < 0 || v > 1 {
			return fmt.Errorf("fleet: jitter %s=%g outside [0, 1]", key, v)
		}
	}
	return nil
}

// String renders the canonical spec: every key in canonical order,
// shortest float form. Equal profiles render equal strings — the string
// is part of the fleet cohort identity, so it must be canonical.
func (p JitterProfile) String() string {
	q := p
	parts := make([]string, len(jitterKeys))
	for i, key := range jitterKeys {
		parts[i] = key + ":" + strconv.FormatFloat(*q.field(key), 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// PresetNames lists the accepted preset spellings, sorted — for error
// messages and docs.
func PresetNames() []string {
	out := make([]string, 0, len(jitterPresets))
	for k := range jitterPresets {
		if k != "" {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
