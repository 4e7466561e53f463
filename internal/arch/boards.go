package arch

import "fmt"

// The four boards of Table I. Microarchitectural parameters (SM widths,
// cache sizes, latencies) come from the vendor whitepapers cited by the
// paper; energy-per-event and voltage-curve parameters are calibration
// constants chosen so that the simulated boards land near their TDP at
// full load and reproduce the paper's generation-to-generation DVFS
// headroom (see DESIGN.md §5 and the calibration tests in internal/power).

// GTX285 returns the Tesla-generation GeForce GTX 285 spec.
//
// Table I: 240 cores, 933 GFLOPS, 159.0 GB/s, 183 W TDP,
// core 600/800/1296 MHz, memory 100/300/1284 MHz.
func GTX285() *Spec {
	return &Spec{
		Name:       "GTX 285",
		Generation: Tesla,

		Timing: Timing{
			SMCount:         30,
			WarpSize:        32,
			MaxWarpsPerSM:   32,
			MaxBlocksPerSM:  8,
			SchedulersPerSM: 1,
			IssuePerSched:   1,

			SharedMemPerSM: 16 << 10,
			RegistersPerSM: 16384,

			// Throughputs are relative to the listed (shader) clock.
			ALUThroughput: 8.0 / 32,
			SFUThroughput: 2.0 / 32,
			DPThroughput:  1.0 / 32,
			LSUThroughput: 8.0 / 32,

			L1PerSM:       0, // Tesla has no L1 data cache
			L2Size:        0, // nor a unified L2
			L1LatencyCyc:  0,
			L2LatencyCyc:  0,
			DRAMLatencyNS: 330,
			LineSize:      128,

			MemBusWidthBits: 512,
			MemDataRate:     2, // GDDR3

			CoreFreqsMHz: [3]float64{600, 800, 1296},
			MemFreqsMHz:  [3]float64{100, 300, 1284},
			// Table III: every pair except (L-L).
			ValidPairs: [3][3]bool{
				FreqLow:  {FreqLow: false, FreqMid: true, FreqHigh: true},
				FreqMid:  {FreqLow: true, FreqMid: true, FreqHigh: true},
				FreqHigh: {FreqLow: true, FreqMid: true, FreqHigh: true},
			},

			TimingIrregularity: 0.55, // GT200: partition camping, serialization quirks
		},

		CoresPerSM: 8,

		PeakGFLOPS:      933,
		MemBandwidthGBs: 159.0,
		TDPWatts:        183,

		// Tesla (65 nm) exposes almost no voltage headroom: this is why
		// the paper finds at most 13% efficiency gain on the GTX 285.
		CoreVoltHigh: 1.18, CoreVoltLow: 1.18,
		MemVoltHigh: 1.05, MemVoltLow: 1.05,
		VoltExponent: 1.0,

		EnergyPerWarpInst:  3.6,
		EnergyPerALU:       5.4,
		EnergyPerSFU:       11.0,
		EnergyPerDP:        16.0,
		EnergyPerLSU:       4.2,
		EnergyPerSharedAcc: 2.6,
		EnergyPerL1Access:  0,
		EnergyPerL2Access:  0,
		EnergyPerDRAMTxn:   21.0,
		CoreLeakWatts:      28,
		MemLeakWatts:       10,
		CoreIdleWatts:      8,
		MemIdleWatts:       26,
	}
}

// GTX460 returns the Fermi-generation (GF104) GeForce GTX 460 spec.
//
// Table I: 336 cores, 907 GFLOPS, 115.2 GB/s, 160 W TDP,
// core 100/810/1350 MHz, memory 135/324/1800 MHz.
func GTX460() *Spec {
	return &Spec{
		Name:       "GTX 460",
		Generation: Fermi,

		Timing: Timing{
			SMCount:         7,
			WarpSize:        32,
			MaxWarpsPerSM:   48,
			MaxBlocksPerSM:  8,
			SchedulersPerSM: 2,
			IssuePerSched:   2, // GF104 dual-issue

			SharedMemPerSM: 48 << 10,
			RegistersPerSM: 32768,

			// The listed clock is the shader (hot) clock; the scalar cores
			// run at it directly, so throughput per listed cycle is
			// cores/warpsize/2 (two hot cycles per scheduler cycle).
			ALUThroughput: 48.0 / 32 / 2,
			SFUThroughput: 8.0 / 32 / 2,
			DPThroughput:  4.0 / 32 / 2,
			LSUThroughput: 16.0 / 32 / 2,

			L1PerSM:       16 << 10,
			L2Size:        512 << 10,
			L1LatencyCyc:  60,
			L2LatencyCyc:  240,
			DRAMLatencyNS: 350,
			LineSize:      128,

			MemBusWidthBits: 256,
			MemDataRate:     2, // GDDR5, listed clock is the data-pair clock

			CoreFreqsMHz: [3]float64{100, 810, 1350},
			MemFreqsMHz:  [3]float64{135, 324, 1800},
			// Table III: H/M rows fully valid, plus (L-L) only.
			ValidPairs: [3][3]bool{
				FreqLow:  {FreqLow: true, FreqMid: false, FreqHigh: false},
				FreqMid:  {FreqLow: true, FreqMid: true, FreqHigh: true},
				FreqHigh: {FreqLow: true, FreqMid: true, FreqHigh: true},
			},

			TimingIrregularity: 0.22,
		},

		CoresPerSM: 48,

		PeakGFLOPS:      907,
		MemBandwidthGBs: 115.2,
		TDPWatts:        160,

		CoreVoltHigh: 1.05, CoreVoltLow: 0.78,
		MemVoltHigh: 1.50, MemVoltLow: 1.20,
		VoltExponent: 1.9,

		EnergyPerWarpInst:  2.6,
		EnergyPerALU:       4.6,
		EnergyPerSFU:       9.0,
		EnergyPerDP:        12.0,
		EnergyPerLSU:       3.4,
		EnergyPerSharedAcc: 2.0,
		EnergyPerL1Access:  1.6,
		EnergyPerL2Access:  4.0,
		EnergyPerDRAMTxn:   30.0,
		CoreLeakWatts:      22,
		MemLeakWatts:       9,
		CoreIdleWatts:      10,
		MemIdleWatts:       24,
	}
}

// GTX480 returns the Fermi-generation (GF100) GeForce GTX 480 spec.
//
// Table I: 480 cores, 1350 GFLOPS, 177.0 GB/s, 250 W TDP,
// core 100/810/1400 MHz, memory 135/324/1848 MHz.
func GTX480() *Spec {
	return &Spec{
		Name:       "GTX 480",
		Generation: Fermi,

		Timing: Timing{
			SMCount:         15,
			WarpSize:        32,
			MaxWarpsPerSM:   48,
			MaxBlocksPerSM:  8,
			SchedulersPerSM: 2,
			IssuePerSched:   1,

			SharedMemPerSM: 48 << 10,
			RegistersPerSM: 32768,

			ALUThroughput: 32.0 / 32 / 2,
			SFUThroughput: 4.0 / 32 / 2,
			DPThroughput:  4.0 / 32 / 2, // GeForce-capped DP rate
			LSUThroughput: 16.0 / 32 / 2,

			L1PerSM:       16 << 10,
			L2Size:        768 << 10,
			L1LatencyCyc:  60,
			L2LatencyCyc:  240,
			DRAMLatencyNS: 350,
			LineSize:      128,

			MemBusWidthBits: 384,
			MemDataRate:     2,

			CoreFreqsMHz: [3]float64{100, 810, 1400},
			MemFreqsMHz:  [3]float64{135, 324, 1848},
			ValidPairs: [3][3]bool{
				FreqLow:  {FreqLow: true, FreqMid: false, FreqHigh: false},
				FreqMid:  {FreqLow: true, FreqMid: true, FreqHigh: true},
				FreqHigh: {FreqLow: true, FreqMid: true, FreqHigh: true},
			},

			TimingIrregularity: 0.13,
		},

		CoresPerSM: 32,

		PeakGFLOPS:      1350,
		MemBandwidthGBs: 177.0,
		TDPWatts:        250,

		CoreVoltHigh: 1.08, CoreVoltLow: 0.80,
		MemVoltHigh: 1.50, MemVoltLow: 1.20,
		VoltExponent: 1.9,

		EnergyPerWarpInst:  3.4,
		EnergyPerALU:       5.6,
		EnergyPerSFU:       10.0,
		EnergyPerDP:        13.0,
		EnergyPerLSU:       4.0,
		EnergyPerSharedAcc: 2.2,
		EnergyPerL1Access:  1.8,
		EnergyPerL2Access:  4.4,
		EnergyPerDRAMTxn:   28.0,
		CoreLeakWatts:      48, // GF100 is famously leaky
		MemLeakWatts:       10,
		CoreIdleWatts:      20,
		MemIdleWatts:       21,
	}
}

// GTX680 returns the Kepler-generation (GK104) GeForce GTX 680 spec.
//
// Table I: 1536 cores, 3090 GFLOPS, 192.2 GB/s, 195 W TDP,
// core 648/1080/1411 MHz, memory 324/810/3004 MHz.
func GTX680() *Spec {
	return &Spec{
		Name:       "GTX 680",
		Generation: Kepler,

		Timing: Timing{
			SMCount:         8,
			WarpSize:        32,
			MaxWarpsPerSM:   64,
			MaxBlocksPerSM:  16,
			SchedulersPerSM: 4,
			IssuePerSched:   2,

			SharedMemPerSM: 48 << 10,
			RegistersPerSM: 65536,

			// Kepler has no hot clock: throughput is relative to the core
			// clock directly.
			ALUThroughput: 192.0 / 32,
			SFUThroughput: 32.0 / 32,
			DPThroughput:  8.0 / 32,
			LSUThroughput: 32.0 / 32,

			L1PerSM:       16 << 10,
			L2Size:        512 << 10,
			L1LatencyCyc:  32,
			L2LatencyCyc:  180,
			DRAMLatencyNS: 270,
			LineSize:      128,

			MemBusWidthBits: 256,
			MemDataRate:     2,

			CoreFreqsMHz: [3]float64{648, 1080, 1411},
			MemFreqsMHz:  [3]float64{324, 810, 3004},
			// Table III: H/M rows fully valid, plus (L-H) only.
			ValidPairs: [3][3]bool{
				FreqLow:  {FreqLow: false, FreqMid: false, FreqHigh: true},
				FreqMid:  {FreqLow: true, FreqMid: true, FreqHigh: true},
				FreqHigh: {FreqLow: true, FreqMid: true, FreqHigh: true},
			},

			TimingIrregularity: 0.06, // Kepler: far fewer unpredictable behaviours
		},

		CoresPerSM: 192,

		PeakGFLOPS:      3090,
		MemBandwidthGBs: 192.2,
		TDPWatts:        195,

		// Kepler (28 nm, boost binning) exposes a wide voltage range:
		// the top frequency bin pays a disproportionate voltage premium,
		// which is what makes (Core-M, *) pairs so profitable (the
		// paper's 75% Backprop result).
		CoreVoltHigh: 1.175, CoreVoltLow: 0.74,
		MemVoltHigh: 1.60, MemVoltLow: 1.35,
		VoltExponent: 3.0,

		EnergyPerWarpInst:  0.7,
		EnergyPerALU:       1.1,
		EnergyPerSFU:       2.4,
		EnergyPerDP:        4.0,
		EnergyPerLSU:       0.9,
		EnergyPerSharedAcc: 0.6,
		EnergyPerL1Access:  0.8,
		EnergyPerL2Access:  2.4,
		EnergyPerDRAMTxn:   20.0,
		CoreLeakWatts:      18,
		MemLeakWatts:       8,
		CoreIdleWatts:      10,
		MemIdleWatts:       21,
	}
}

// AllBoards returns the four boards of Table I in the paper's order.
func AllBoards() []*Spec {
	return []*Spec{GTX285(), GTX460(), GTX480(), GTX680()}
}

// BoardByName looks up one of the Table I boards by its exact name
// (e.g. "GTX 680"). It returns nil if the name is unknown.
func BoardByName(name string) *Spec {
	for _, s := range AllBoards() {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// ResolveBoards turns a campaign's board list into specs, in list order.
// Every name must be a Table I board and appear once: a repeated board
// would be measured twice and rendered twice. Empty input means the four
// Table I boards.
func ResolveBoards(names []string) ([]*Spec, error) {
	if len(names) == 0 {
		return AllBoards(), nil
	}
	out := make([]*Spec, 0, len(names))
	for _, n := range names {
		s := BoardByName(n)
		if s == nil {
			return nil, fmt.Errorf("unknown board %q", n)
		}
		for _, prev := range out {
			if prev.Name == n {
				return nil, fmt.Errorf("board %q listed twice", n)
			}
		}
		out = append(out, s)
	}
	return out, nil
}
