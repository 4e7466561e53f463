// Package arch describes the GPU microarchitectures studied in the paper:
// NVIDIA Tesla, Fermi and Kepler, and the four concrete GeForce boards of
// Table I (GTX 285, GTX 460, GTX 480 and GTX 680).
//
// A Spec is pure data: the timing simulator (internal/gpu), the hardware
// energy model (internal/power) and the clock/DVFS tables (internal/clock)
// are all parameterized by it. Nothing in this package computes; it is the
// single source of truth for "what the hardware looks like".
package arch

import (
	"fmt"
	"math"
)

// Generation identifies a GPU microarchitecture generation.
type Generation int

const (
	// Tesla is the first CUDA-capable generation (GT200 class). No L1/L2
	// data caches, narrow SMs, very limited clock/voltage headroom.
	Tesla Generation = iota
	// Fermi introduced a real cache hierarchy (per-SM L1, shared L2) and
	// wider SMs.
	Fermi
	// Kepler widened the SM (SMX) dramatically and exposed a much wider
	// voltage/frequency range, which is what makes DVFS profitable on it.
	Kepler
)

// String returns the generation's marketing name.
func (g Generation) String() string {
	switch g {
	case Tesla:
		return "Tesla"
	case Fermi:
		return "Fermi"
	case Kepler:
		return "Kepler"
	case GCN:
		return "GCN"
	default:
		return fmt.Sprintf("Generation(%d)", int(g))
	}
}

// FreqLevel indexes the vendor-defined performance levels of a clock domain.
// The paper calls them Low, Medium and High (Table I lists the exact MHz).
type FreqLevel int

const (
	// FreqLow is the lowest vendor-defined frequency of a domain.
	FreqLow FreqLevel = iota
	// FreqMid is the intermediate vendor-defined frequency.
	FreqMid
	// FreqHigh is the boot/default frequency of a domain.
	FreqHigh
)

// String returns the paper's one-letter abbreviation (L, M, H).
func (l FreqLevel) String() string {
	switch l {
	case FreqLow:
		return "L"
	case FreqMid:
		return "M"
	case FreqHigh:
		return "H"
	default:
		return fmt.Sprintf("FreqLevel(%d)", int(l))
	}
}

// Levels lists the frequency levels in ascending order.
func Levels() []FreqLevel { return []FreqLevel{FreqLow, FreqMid, FreqHigh} }

// Spec is the full static description of one GPU board. Frequencies are in
// MHz, sizes in bytes, bandwidth in GB/s, power in watts, energies in
// nanojoules per event.
//
// The embedded Timing is everything execution time depends on; the fields
// Spec adds move only power (the voltage curve, per-event energies and
// static power) or are informational. Fleet jitter perturbs only the
// latter, so every jittered device of one base board shares its Timing.
type Spec struct {
	Name       string
	Generation Generation

	Timing

	CoresPerSM int // scalar CUDA cores per SM

	// Table I headline figures (informational; bandwidth is also derived
	// from the bus parameters and must agree with this to within a few %).
	PeakGFLOPS      float64
	MemBandwidthGBs float64
	TDPWatts        float64

	// Voltage model: domain voltage at FreqHigh and at FreqLow. Levels in
	// between interpolate as V = Vlow + (Vhigh-Vlow)·t^VoltExponent with
	// t the normalized frequency, so an exponent > 1 makes the top
	// frequency bin pay a disproportionate voltage premium (Kepler boost
	// binning). The width and shape of this curve is the generation's
	// DVFS headroom and is the mechanism behind the paper's headline
	// "Kepler saves far more than Tesla" result.
	CoreVoltHigh, CoreVoltLow float64
	MemVoltHigh, MemVoltLow   float64
	VoltExponent              float64 // ≥ 1; 0 means 1 (linear)

	// Energy model: nanojoules per event at FreqHigh voltage, and static
	// power in watts at FreqHigh voltage. See internal/power.
	EnergyPerWarpInst  float64 // issue + operand collection, per warp inst
	EnergyPerALU       float64 // per warp ALU instruction
	EnergyPerSFU       float64
	EnergyPerDP        float64
	EnergyPerLSU       float64 // address generation, per warp mem inst
	EnergyPerSharedAcc float64 // per shared-memory warp access
	EnergyPerL1Access  float64 // per L1 transaction
	EnergyPerL2Access  float64 // per L2 transaction
	EnergyPerDRAMTxn   float64 // per DRAM transaction (memory domain)
	CoreLeakWatts      float64 // core-domain leakage at CoreVoltHigh
	MemLeakWatts       float64 // memory-domain static power at MemVoltHigh
	CoreIdleWatts      float64 // clock-tree/idle dynamic at FreqHigh
	MemIdleWatts       float64 // DRAM background at FreqHigh
}

// Timing is the half of a Spec that execution time depends on: the SM
// topology and occupancy limits, the unit throughputs, the memory
// hierarchy, the DRAM interface, the frequency tables and the pairs the
// BIOS exposes. The timing simulator (internal/gpu) and the frequency,
// bandwidth and latency accessors of clock.State read nothing else, so
// two boards with equal Timing values run every kernel in the same time
// at every pair. Timing is all value fields: == compares every field,
// and a copy is deep.
type Timing struct {
	// SM topology.
	SMCount         int // streaming multiprocessors
	WarpSize        int // threads per warp (32 on all generations)
	MaxWarpsPerSM   int // resident-warp limit
	MaxBlocksPerSM  int // resident-block limit
	SchedulersPerSM int // warp schedulers per SM
	IssuePerSched   int // instructions issued per scheduler per cycle

	// Per-SM storage limits that bound occupancy.
	SharedMemPerSM int // bytes
	RegistersPerSM int // 32-bit registers

	// Functional-unit throughputs in warp-instructions per SM per core
	// cycle (a warp instruction covers WarpSize threads).
	ALUThroughput float64 // integer/single-precision pipeline
	SFUThroughput float64 // transcendental pipeline
	DPThroughput  float64 // double-precision pipeline
	LSUThroughput float64 // load/store address pipeline

	// Memory hierarchy. Cache sizes of zero mean "absent" (Tesla).
	L1PerSM       int     // bytes
	L2Size        int     // bytes
	L1LatencyCyc  float64 // core cycles
	L2LatencyCyc  float64 // core cycles
	DRAMLatencyNS float64 // nanoseconds at the reference memory clock
	LineSize      int     // bytes per memory transaction

	// DRAM interface.
	MemBusWidthBits int     // aggregate bus width
	MemDataRate     float64 // transfers per memory-clock cycle (GDDR3=2, GDDR5=4)

	// Vendor-defined frequency levels, MHz, indexed by FreqLevel.
	CoreFreqsMHz [3]float64
	MemFreqsMHz  [3]float64

	// ValidPairs marks which (core level, mem level) combinations the
	// BIOS exposes (Table III). Indexed [core][mem].
	ValidPairs [3][3]bool

	// TimingIrregularity is the relative magnitude of workload- and
	// clock-dependent execution-time deviations that performance counters
	// cannot explain (partition camping, TLB pathologies, scheduler
	// artifacts). The paper observes that such unpredictable behaviour is
	// large on Tesla and mostly gone on Kepler — it is why the
	// performance-model error falls from 68% to 34% across generations.
	// The simulator applies a deterministic per-(kernel, grid, pair)
	// deviation uniform in ±TimingIrregularity.
	TimingIrregularity float64
}

// CoreFreqMHz returns the core frequency of the given level in MHz.
func (s *Spec) CoreFreqMHz(l FreqLevel) float64 { return s.CoreFreqsMHz[l] }

// MemFreqMHz returns the memory frequency of the given level in MHz.
func (s *Spec) MemFreqMHz(l FreqLevel) float64 { return s.MemFreqsMHz[l] }

// CoreFreqGHz returns the core frequency of the given level in GHz — the
// unit the Eq. (1)/(2) regression features are expressed in.
func (s *Spec) CoreFreqGHz(l FreqLevel) float64 { return s.CoreFreqsMHz[l] / 1e3 }

// MemFreqGHz returns the memory frequency of the given level in GHz.
func (s *Spec) MemFreqGHz(l FreqLevel) float64 { return s.MemFreqsMHz[l] / 1e3 }

// PairValid reports whether the BIOS exposes the (core, mem) level pair.
func (s *Spec) PairValid(core, mem FreqLevel) bool { return s.ValidPairs[core][mem] }

// CoreVoltage returns the core-domain voltage at the given level on the
// generation's V–f curve.
func (s *Spec) CoreVoltage(l FreqLevel) float64 {
	return s.interpVolt(s.CoreFreqsMHz, l, s.CoreVoltLow, s.CoreVoltHigh)
}

// MemVoltage returns the memory-domain voltage at the given level.
func (s *Spec) MemVoltage(l FreqLevel) float64 {
	return s.interpVolt(s.MemFreqsMHz, l, s.MemVoltLow, s.MemVoltHigh)
}

func (s *Spec) interpVolt(freqs [3]float64, l FreqLevel, vLow, vHigh float64) float64 {
	fLow, fHigh := freqs[FreqLow], freqs[FreqHigh]
	if fHigh == fLow {
		return vHigh
	}
	t := (freqs[l] - fLow) / (fHigh - fLow)
	exp := s.VoltExponent
	if exp <= 0 {
		exp = 1
	}
	return vLow + math.Pow(t, exp)*(vHigh-vLow)
}

// DerivedBandwidthGBs computes peak DRAM bandwidth in GB/s at the given
// memory level from the bus parameters.
func (s *Spec) DerivedBandwidthGBs(l FreqLevel) float64 {
	bytesPerClock := float64(s.MemBusWidthBits) / 8 * s.MemDataRate
	return bytesPerClock * s.MemFreqsMHz[l] * 1e6 / 1e9
}

// TotalCores returns the total scalar core count (Table I row 2).
func (s *Spec) TotalCores() int { return s.SMCount * s.CoresPerSM }

// Validate checks internal consistency of the spec. It is called by the
// driver when booting a device so that a hand-edited spec fails loudly.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("arch: spec has no name")
	}
	if s.SMCount <= 0 || s.CoresPerSM <= 0 {
		return fmt.Errorf("arch: %s: non-positive SM topology", s.Name)
	}
	if s.WarpSize <= 0 || s.MaxWarpsPerSM <= 0 || s.MaxBlocksPerSM <= 0 {
		return fmt.Errorf("arch: %s: non-positive occupancy limits", s.Name)
	}
	if s.LineSize <= 0 {
		return fmt.Errorf("arch: %s: non-positive line size", s.Name)
	}
	for i := 1; i < 3; i++ {
		if s.CoreFreqsMHz[i] < s.CoreFreqsMHz[i-1] {
			return fmt.Errorf("arch: %s: core frequencies not ascending", s.Name)
		}
		if s.MemFreqsMHz[i] < s.MemFreqsMHz[i-1] {
			return fmt.Errorf("arch: %s: memory frequencies not ascending", s.Name)
		}
	}
	if s.CoreFreqsMHz[FreqLow] <= 0 || s.MemFreqsMHz[FreqLow] <= 0 {
		return fmt.Errorf("arch: %s: non-positive frequency", s.Name)
	}
	if !s.ValidPairs[FreqHigh][FreqHigh] {
		return fmt.Errorf("arch: %s: default pair (H-H) must be valid", s.Name)
	}
	if s.CoreVoltLow <= 0 || s.CoreVoltHigh < s.CoreVoltLow {
		return fmt.Errorf("arch: %s: bad core voltage range", s.Name)
	}
	if s.MemVoltLow <= 0 || s.MemVoltHigh < s.MemVoltLow {
		return fmt.Errorf("arch: %s: bad memory voltage range", s.Name)
	}
	derived := s.DerivedBandwidthGBs(FreqHigh)
	if ratio := derived / s.MemBandwidthGBs; ratio < 0.9 || ratio > 1.1 {
		return fmt.Errorf("arch: %s: derived bandwidth %.1f GB/s disagrees with spec %.1f GB/s",
			s.Name, derived, s.MemBandwidthGBs)
	}
	if s.Generation != Tesla && (s.L1PerSM == 0 || s.L2Size == 0) {
		return fmt.Errorf("arch: %s: %s must have caches", s.Name, s.Generation)
	}
	return nil
}
