package arch

// The paper's stated future work is validating the unified models across
// vendors ("as NVIDIA's Kepler and AMD's Radeon", Section IV-B). This file
// provides that extension: a Radeon HD 7970 (GCN, Tahiti) descriptor that
// exercises the same pipeline — VBIOS synthesis, DVFS sweep, counter
// collection, model training — on a non-NVIDIA microarchitecture. The
// board is deliberately *not* part of AllBoards(): the paper's tables and
// figures cover the four GeForce boards only; the Radeon flows through the
// FutureWork benches and tests.

// GCN is the AMD Graphics Core Next generation (Radeon HD 7000 series).
const GCN Generation = 3

// RadeonHD7970 returns the AMD Radeon HD 7970 (Tahiti XT) spec.
//
// Vendor figures: 2048 stream processors (32 CUs × 64), 3.79 TFLOPS
// single precision, 264 GB/s over a 384-bit GDDR5 interface, 250 W TDP.
// The PowerPlay levels stand in for the H/M/L clock table.
func RadeonHD7970() *Spec {
	return &Spec{
		Name:       "Radeon HD 7970",
		Generation: GCN,

		Timing: Timing{
			// A GCN compute unit runs 64-lane wavefronts over four 16-lane
			// SIMDs; we model a CU as an "SM" with WarpSize 64.
			SMCount:         32,
			WarpSize:        64,
			MaxWarpsPerSM:   40, // wavefronts per CU
			MaxBlocksPerSM:  16,
			SchedulersPerSM: 4,
			IssuePerSched:   1,

			SharedMemPerSM: 64 << 10, // LDS
			RegistersPerSM: 65536,

			ALUThroughput: 64.0 / 64, // one wavefront-instruction per cycle per CU
			SFUThroughput: 16.0 / 64,
			DPThroughput:  16.0 / 64, // Tahiti's strong 1/4-rate DP
			LSUThroughput: 16.0 / 64,

			L1PerSM:       16 << 10,
			L2Size:        768 << 10,
			L1LatencyCyc:  40,
			L2LatencyCyc:  190,
			DRAMLatencyNS: 280,
			LineSize:      64, // GCN's 64 B cache lines

			MemBusWidthBits: 384,
			MemDataRate:     4, // GDDR5 quad-pumped relative to the 1375 MHz command clock

			// PowerPlay DPM levels: 300/501/925 MHz engine,
			// 150/675/1375 MHz memory.
			CoreFreqsMHz: [3]float64{300, 501, 925},
			MemFreqsMHz:  [3]float64{150, 675, 1375},
			ValidPairs: [3][3]bool{
				FreqLow:  {FreqLow: true, FreqMid: true, FreqHigh: false},
				FreqMid:  {FreqLow: true, FreqMid: true, FreqHigh: true},
				FreqHigh: {FreqLow: false, FreqMid: true, FreqHigh: true},
			},

			TimingIrregularity: 0.10,
		},

		CoresPerSM: 64,

		PeakGFLOPS:      3789,
		MemBandwidthGBs: 264,
		TDPWatts:        250,

		// 28 nm like Kepler, with a similar (slightly shallower) headroom.
		CoreVoltHigh: 1.17, CoreVoltLow: 0.85,
		MemVoltHigh: 1.60, MemVoltLow: 1.35,
		VoltExponent: 2.2,

		EnergyPerWarpInst:  1.4, // per 64-lane wavefront instruction
		EnergyPerALU:       2.2,
		EnergyPerSFU:       4.8,
		EnergyPerDP:        6.5,
		EnergyPerLSU:       1.8,
		EnergyPerSharedAcc: 1.2,
		EnergyPerL1Access:  1.0,
		EnergyPerL2Access:  2.8,
		EnergyPerDRAMTxn:   11.0, // 64 B transactions
		CoreLeakWatts:      30,
		MemLeakWatts:       10,
		CoreIdleWatts:      14,
		MemIdleWatts:       24,
	}
}
