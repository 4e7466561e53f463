// Package clock models the two independently scalable clock domains of an
// NVIDIA GPU — the processing-core domain and the memory domain — together
// with the implicit voltage scaling that accompanies frequency changes
// (Section II-B of the paper: voltage is adjusted by the BIOS whenever a
// frequency level is selected).
//
// A Pair names a (core level, memory level) combination using the paper's
// H/M/L notation; State tracks the currently programmed pair for a device
// and exposes the frequency, voltage and power-scaling factors the timing
// simulator and the energy model consume.
package clock

import (
	"fmt"
	"math"

	"gpuperf/internal/arch"
)

// Pair is a (core, memory) frequency-level combination, e.g. (Core-H, Mem-L),
// written "(H-L)" as in Table IV of the paper.
type Pair struct {
	Core arch.FreqLevel
	Mem  arch.FreqLevel
}

// DefaultPair returns the boot/default configuration (Core-H, Mem-H).
func DefaultPair() Pair { return Pair{arch.FreqHigh, arch.FreqHigh} }

// pairNames holds the notation of the nine level pairs, indexed
// [core][mem], so formatting a pair — done once per sweep cell for the
// cell's noise scope — allocates nothing.
var pairNames = [3][3]string{
	arch.FreqLow:  {arch.FreqLow: "(L-L)", arch.FreqMid: "(L-M)", arch.FreqHigh: "(L-H)"},
	arch.FreqMid:  {arch.FreqLow: "(M-L)", arch.FreqMid: "(M-M)", arch.FreqHigh: "(M-H)"},
	arch.FreqHigh: {arch.FreqLow: "(H-L)", arch.FreqMid: "(H-M)", arch.FreqHigh: "(H-H)"},
}

// String formats the pair in the paper's "(H-L)" notation.
func (p Pair) String() string {
	if uint(p.Core) < 3 && uint(p.Mem) < 3 {
		return pairNames[p.Core][p.Mem]
	}
	return fmt.Sprintf("(%s-%s)", p.Core, p.Mem)
}

// ParsePair parses the "(H-L)" notation (parentheses optional).
func ParsePair(s string) (Pair, error) {
	trimmed := s
	if len(trimmed) >= 2 && trimmed[0] == '(' && trimmed[len(trimmed)-1] == ')' {
		trimmed = trimmed[1 : len(trimmed)-1]
	}
	if len(trimmed) != 3 || trimmed[1] != '-' {
		return Pair{}, fmt.Errorf("clock: malformed pair %q", s)
	}
	core, err := parseLevel(trimmed[0])
	if err != nil {
		return Pair{}, fmt.Errorf("clock: pair %q: %w", s, err)
	}
	mem, err := parseLevel(trimmed[2])
	if err != nil {
		return Pair{}, fmt.Errorf("clock: pair %q: %w", s, err)
	}
	return Pair{core, mem}, nil
}

func parseLevel(b byte) (arch.FreqLevel, error) {
	switch b {
	case 'L', 'l':
		return arch.FreqLow, nil
	case 'M', 'm':
		return arch.FreqMid, nil
	case 'H', 'h':
		return arch.FreqHigh, nil
	default:
		return 0, fmt.Errorf("unknown level %q", string(b))
	}
}

// ValidPairs enumerates the pairs the board's BIOS exposes (Table III), in
// a deterministic order: core level descending (H, M, L), then memory level
// descending, i.e. the order of Table III's rows.
func ValidPairs(s *arch.Spec) []Pair {
	var out []Pair
	for ci := 2; ci >= 0; ci-- {
		for mi := 2; mi >= 0; mi-- {
			p := Pair{arch.FreqLevel(ci), arch.FreqLevel(mi)}
			if s.PairValid(p.Core, p.Mem) {
				out = append(out, p)
			}
		}
	}
	return out
}

// State is the programmed DVFS state of one device. The zero value is not
// usable; construct with NewState.
//
// The voltage of each level, and the power scales derived from it, depend
// only on the spec and the level, so NewState computes them once per
// domain and level and the accessors index those tables. A spec must
// therefore not change once a state is built on it. Nothing mutates a
// spec after boot: fleet jitter is applied to a private copy of the base
// board before driver.OpenSpecWithFaults boots it, and the ablations
// build their modified specs before booting too.
type State struct {
	spec      *arch.Spec
	pair      Pair
	core, mem levelTable
}

// levelTable holds one clock domain's per-level values, indexed by
// arch.FreqLevel.
type levelTable struct {
	volt   [3]float64 // V
	energy [3]float64 // (V/VH)²
	leak   [3]float64 // (V/VH)³
	idle   [3]float64 // (f/fH)·(V/VH)²
}

// newLevelTable evaluates one domain's table. Every entry uses the
// expression, in the evaluation order, that the scales were defined by,
// so each value is bit-identical to computing it on demand.
func newLevelTable(freqs [3]float64, voltage func(arch.FreqLevel) float64, vHigh float64) levelTable {
	var t levelTable
	for _, l := range arch.Levels() {
		v := voltage(l)
		r := v / vHigh
		t.volt[l] = v
		t.energy[l] = r * r
		t.leak[l] = math.Pow(r, 3)
		t.idle[l] = freqs[l] * 1e6 / (freqs[arch.FreqHigh] * 1e6) * t.energy[l]
	}
	return t
}

// NewState returns a state for the given board set to the default (H-H) pair.
func NewState(spec *arch.Spec) *State {
	return &State{
		spec: spec,
		pair: DefaultPair(),
		core: newLevelTable(spec.CoreFreqsMHz, spec.CoreVoltage, spec.CoreVoltHigh),
		mem:  newLevelTable(spec.MemFreqsMHz, spec.MemVoltage, spec.MemVoltHigh),
	}
}

// Spec returns the board this state belongs to.
func (st *State) Spec() *arch.Spec { return st.spec }

// Pair returns the currently programmed frequency pair.
func (st *State) Pair() Pair { return st.pair }

// SetPair programs a new frequency pair. Pairs the BIOS does not expose
// (Table III) are rejected, mirroring the real driver's behaviour.
func (st *State) SetPair(p Pair) error {
	if !st.spec.PairValid(p.Core, p.Mem) {
		return fmt.Errorf("clock: %s does not expose pair %s", st.spec.Name, p)
	}
	st.pair = p
	return nil
}

// CoreHz returns the programmed core frequency in hertz.
func (st *State) CoreHz() float64 { return st.spec.CoreFreqMHz(st.pair.Core) * 1e6 }

// MemHz returns the programmed memory frequency in hertz.
func (st *State) MemHz() float64 { return st.spec.MemFreqMHz(st.pair.Mem) * 1e6 }

// CoreVolt returns the core-domain voltage implied by the programmed pair.
func (st *State) CoreVolt() float64 { return st.core.volt[st.pair.Core] }

// MemVolt returns the memory-domain voltage implied by the programmed pair.
func (st *State) MemVolt() float64 { return st.mem.volt[st.pair.Mem] }

// MemBandwidthBytesPerSec returns the peak DRAM bandwidth at the programmed
// memory frequency, in bytes per second.
func (st *State) MemBandwidthBytesPerSec() float64 {
	return st.spec.DerivedBandwidthGBs(st.pair.Mem) * 1e9
}

// DRAMLatencySec returns the DRAM access latency at the programmed memory
// frequency. Roughly half of the latency (row activation, chip-internal
// timing) is fixed in wall-clock terms; the other half (command/transfer
// cycles) stretches as the memory clock drops.
func (st *State) DRAMLatencySec() float64 {
	base := st.spec.DRAMLatencyNS * 1e-9
	fh := st.spec.MemFreqMHz(arch.FreqHigh)
	f := st.spec.MemFreqMHz(st.pair.Mem)
	return base * (0.5 + 0.5*fh/f)
}

// Dynamic-power scale factors. Dynamic power is C·V²·f·activity; relative
// to the High level the factor is (f/fH)·(V/VH)². The energy model applies
// these to per-event energies (per-event energy scales with V² only; the
// frequency factor enters through the event *rate*), so the scales below
// are split accordingly.

// CoreEnergyScale returns (Vcore/VcoreHigh)², the per-event energy scale of
// the core domain at the programmed pair.
func (st *State) CoreEnergyScale() float64 { return st.core.energy[st.pair.Core] }

// MemEnergyScale returns (Vmem/VmemHigh)² for the memory domain.
func (st *State) MemEnergyScale() float64 { return st.mem.energy[st.pair.Mem] }

// CoreLeakScale returns the leakage scale of the core domain. Subthreshold
// leakage is strongly voltage dependent; we model it as (V/VH)³.
func (st *State) CoreLeakScale() float64 { return st.core.leak[st.pair.Core] }

// MemLeakScale returns the leakage scale of the memory domain, (V/VH)³.
func (st *State) MemLeakScale() float64 { return st.mem.leak[st.pair.Mem] }

// CoreIdleScale returns the clock-tree/idle dynamic power scale of the core
// domain: (f/fH)·(V/VH)².
func (st *State) CoreIdleScale() float64 { return st.core.idle[st.pair.Core] }

// MemIdleScale returns the DRAM background power scale: (f/fH)·(V/VH)².
func (st *State) MemIdleScale() float64 { return st.mem.idle[st.pair.Mem] }
