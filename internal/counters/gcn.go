package counters

import (
	"fmt"

	"gpuperf/internal/arch"
)

// gcnDefs lists the 48 counters of the AMD GCN profiler (CodeXL-era GPU
// performance counters for Tahiti). This is the future-work extension: the
// paper's Section IV-B closes by proposing validation on AMD Radeon, and
// the unified models only need a counter set with core/memory-event
// classification to train on a new vendor.
func gcnDefs() []Def {
	defs := []Def{
		def("Wavefronts", CoreEvent, jSmall, ActWarpsLaunched, 1.0),
		def("VALUInsts", CoreEvent, jSmall, ActALU, 1.0, ActSFU, 1.0),
		def("SALUInsts", CoreEvent, jSmall, ActALU, 0.25, ActBranch, 1.0),
		def("VFetchInsts", CoreEvent, jSmall, ActLSU, 0.6),
		def("VWriteInsts", CoreEvent, jSmall, ActLSU, 0.4),
		def("FlatVMemInsts", CoreEvent, jMed, ActLSU, 0.1),
		def("SFetchInsts", CoreEvent, jMed, ActInstIssued, 0.04),
		def("VALUBusy", CoreEvent, jMed, ActALU, 1.0, ActDP, 4.0),
		def("SALUBusy", CoreEvent, jMed, ActBranch, 1.0, ActALU, 0.25),
		def("VALUUtilization", CoreEvent, jMed, ActOccupancy, 1.0),
		def("GDSInsts", CoreEvent, jBig, ActShared, 0.02),
		def("LDSInsts", CoreEvent, jSmall, ActShared, 1.0),
		def("LDSBankConflict", CoreEvent, jBig, ActShared, 0.06, ActDivergent, 0.1),
		def("FP64Insts", CoreEvent, jSmall, ActDP, 1.0),
		def("BranchInsts", CoreEvent, jSmall, ActBranch, 1.0),
		def("BranchTakenDivergent", CoreEvent, jSmall, ActDivergent, 1.0),
		def("InstsIssued", CoreEvent, jSmall, ActInstIssued, 1.0),
		def("InstsExecuted", CoreEvent, jSmall, ActInstExecuted, 1.0),
		def("GPUBusy", CoreEvent, jMed, ActActiveCycles, 1.0),
		def("GPUTime_cycles", CoreEvent, jSmall, ActElapsedCycles, 1.0),
		def("CSThreadGroups", CoreEvent, jSmall, ActBlocksLaunched, 1.0),
		def("CSThreads", CoreEvent, jSmall, ActThreadsLaunched, 1.0),
	}
	// Texture/cache unit counters.
	defs = append(defs,
		def("TCPBusy", CoreEvent, jMed, ActL1Hit, 0.8, ActL1Miss, 1.0),
		def("CacheHit_L1", CoreEvent, jSmall, ActL1Hit, 1.0),
		def("CacheMiss_L1", CoreEvent, jSmall, ActL1Miss, 1.0),
		def("L2CacheHit", MemEvent, jSmall, ActL2Hit, 1.0),
		def("L2CacheMiss", MemEvent, jSmall, ActL2Miss, 1.0),
		def("TCCBusy", MemEvent, jMed, ActL2Hit, 0.5, ActL2Miss, 0.7),
	)
	// Memory-unit counters, per channel pair (4 groups over 12 channels).
	for ch := 0; ch < 4; ch++ {
		defs = append(defs,
			def(fmt.Sprintf("MemRead_ch%d", ch), MemEvent, jSmall, ActDRAMRead, 0.25),
			def(fmt.Sprintf("MemWrite_ch%d", ch), MemEvent, jSmall, ActDRAMWrite, 0.25),
		)
	}
	defs = append(defs,
		def("FetchSize", MemEvent, jSmall, ActDRAMRead, 64.0),  // bytes
		def("WriteSize", MemEvent, jSmall, ActDRAMWrite, 64.0), // bytes
		def("MemUnitBusy", MemEvent, jMed, ActDRAMRead, 0.6, ActDRAMWrite, 0.6),
		def("MemUnitStalled", CoreEvent, jMed, ActStallMem, 1.0),
		def("WriteUnitStalled", MemEvent, jBig, ActDRAMWrite, 0.1),
		def("ALUStalledByLDS", CoreEvent, jBig, ActStallExec, 0.2, ActShared, 0.05),
		def("DependencyStall", CoreEvent, jMed, ActStallExec, 1.0),
	)
	for i := 0; i < 5; i++ {
		defs = append(defs, def(fmt.Sprintf("PerfCounterSel_%02d", i), CoreEvent, jBig,
			ActInstIssued, 0.002*float64(i+1)))
	}
	return defs
}

// gcnSet is wired into ForGeneration via init to keep the NVIDIA
// generations (the paper's scope) and the future-work extension separable.
func init() {
	generations[arch.GCN] = register(arch.GCN, gcnDefs)
}
