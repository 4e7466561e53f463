package counters

import (
	"fmt"
	"math/rand"
	"sync"

	"gpuperf/internal/arch"
)

// Class is the paper's two-way classification of counters: core-events
// consume energy proportional to the core clock; memory-events to the
// memory clock (Section IV-A). The zero value is no class, so a Def that
// omits its class is caught when its set is built (newSet).
type Class int

const (
	// CoreEvent counters track activity inside the SMs.
	CoreEvent Class = iota + 1
	// MemEvent counters track un-core activity (L2, DRAM).
	MemEvent
)

// String returns "core" or "mem".
func (c Class) String() string {
	if c == CoreEvent {
		return "core"
	}
	return "mem"
}

// Term is one weighted activity in a counter definition.
type Term struct {
	Act    Activity
	Weight float64
}

// Def defines one named hardware counter as a weighted view over the
// activity vector. Weights are summed in order, so a counter's value is
// the same to the last bit on every evaluation. Jitter is the relative
// standard deviation of the multiplicative sampling noise (profiler
// nondeterminism).
type Def struct {
	Name    string
	Class   Class
	Weights []Term
	Jitter  float64
}

// Set is the full counter list of one architecture generation. Sets
// returned by ForGeneration are shared by every device of the generation
// and must be treated as read-only.
type Set struct {
	Generation arch.Generation
	Defs       []Def
	byName     map[string]int
}

// Len returns the number of counters in the set.
func (s *Set) Len() int { return len(s.Defs) }

// Index returns the position of the named counter, or -1.
func (s *Set) Index(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Collect evaluates every counter over an activity vector. The rng drives
// the per-counter sampling jitter; pass a deterministic source for
// reproducible experiments. Values are clamped at zero.
func (s *Set) Collect(v *Vector, rng *rand.Rand) []float64 {
	out := make([]float64, len(s.Defs))
	for i, d := range s.Defs {
		var x float64
		for _, t := range d.Weights {
			x += t.Weight * v[t.Act]
		}
		if d.Jitter > 0 && rng != nil {
			x *= 1 + d.Jitter*rng.NormFloat64()
		}
		if x < 0 {
			x = 0
		}
		out[i] = x
	}
	return out
}

// newSet indexes a generation's definitions. It panics on a counter that
// is not classified exactly once: a class other than CoreEvent or
// MemEvent (omitted, or converted from an integer) or a name registered
// twice would skew the Eq. (1)/(2) split without any other error.
func newSet(g arch.Generation, defs []Def) *Set {
	s := &Set{Generation: g, Defs: defs, byName: make(map[string]int, len(defs))}
	for i, d := range defs {
		if d.Class != CoreEvent && d.Class != MemEvent {
			panic(fmt.Sprintf("counters: counter %q has class %d, neither CoreEvent nor MemEvent", d.Name, int(d.Class)))
		}
		if _, dup := s.byName[d.Name]; dup {
			panic(fmt.Sprintf("counters: duplicate counter %q", d.Name))
		}
		s.byName[d.Name] = i
	}
	return s
}

func def(name string, class Class, jitter float64, pairs ...interface{}) Def {
	if len(pairs)%2 != 0 {
		panic("counters: def weights must be (Activity, float64) pairs")
	}
	w := make([]Term, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		w = append(w, Term{Act: pairs[i].(Activity), Weight: pairs[i+1].(float64)})
	}
	return Def{Name: name, Class: class, Weights: w, Jitter: jitter}
}

// ForGeneration returns the counter set of an architecture generation.
// Cardinalities match the paper: Tesla 32, Fermi 74, Kepler 108. Each
// set is built once per process on first use and shared read-only by
// every caller; an unregistered generation panics on every call.
//
// Counter fidelity improves with generation: the GT200-era profiler sampled
// a single TPC (or one memory partition) and extrapolated chip-wide, so its
// counters carry several times the sampling error of Kepler's chip-wide
// counting. This is one of the paper's explanations for why both models
// grow more accurate on newer GPUs.
func ForGeneration(g arch.Generation) *Set {
	get, ok := generations[g]
	if !ok {
		panic(fmt.Sprintf("counters: unknown generation %v", g))
	}
	return get()
}

// generations maps each known generation to its memoized set builder.
// It is written only during package initialization (the future-work GCN
// set registers itself from gcn.go), so lookups need no lock.
var generations = map[arch.Generation]func() *Set{
	arch.Tesla:  register(arch.Tesla, func() []Def { return scaleJitter(teslaDefs(), 4.0) }),
	arch.Fermi:  register(arch.Fermi, func() []Def { return scaleJitter(fermiDefs(), 1.8) }),
	arch.Kepler: register(arch.Kepler, keplerDefs),
}

// register wraps a generation's definitions into a builder that runs
// once per process.
func register(g arch.Generation, defs func() []Def) func() *Set {
	return sync.OnceValue(func() *Set { return newSet(g, defs()) })
}

func scaleJitter(defs []Def, k float64) []Def {
	for i := range defs {
		defs[i].Jitter *= k
	}
	return defs
}

const (
	jSmall = 0.01 // tightly specified counters
	jMed   = 0.03 // counters with sampling windows
	jBig   = 0.08 // noisy/derived counters
)

// teslaDefs lists the 32 counters of the GT200-era profiler.
func teslaDefs() []Def {
	defs := []Def{
		def("instructions", CoreEvent, jSmall, ActInstExecuted, 1.0),
		def("warp_serialize", CoreEvent, jMed, ActShared, 0.15, ActDivergent, 0.6),
		def("branch", CoreEvent, jSmall, ActBranch, 1.0),
		def("divergent_branch", CoreEvent, jSmall, ActDivergent, 1.0),
		def("sm_cta_launched", CoreEvent, jSmall, ActBlocksLaunched, 1.0/30),
		def("active_cycles", CoreEvent, jMed, ActActiveCycles, 1.0/30),
		def("active_warps", CoreEvent, jMed, ActActiveCycles, 0.8, ActOccupancy, 0.0),
		def("shared_load", CoreEvent, jSmall, ActShared, 0.6),
		def("shared_store", CoreEvent, jSmall, ActShared, 0.4),
		def("local_load", MemEvent, jMed, ActLSU, 0.02),
		def("local_store", MemEvent, jMed, ActLSU, 0.01),
		def("cta_heartbeat", CoreEvent, jBig, ActBlocksLaunched, 1.0/120),
	}
	// Per-width global load/store transaction counters: the GT200
	// profiler splits transactions by access width.
	for _, side := range []struct {
		name string
		act  Activity
	}{{"gld", ActGlobalLoadTxn}, {"gst", ActGlobalStoreTxn}} {
		for _, w := range []struct {
			suffix string
			share  float64
		}{{"32b", 0.25}, {"64b", 0.35}, {"128b", 0.40}} {
			defs = append(defs, def(side.name+"_"+w.suffix, MemEvent, jSmall, side.act, w.share))
		}
	}
	// gld/gst_incoherent|coherent: coalescing split.
	defs = append(defs,
		def("gld_incoherent", MemEvent, jMed, ActGlobalLoadTxn, 0.2),
		def("gld_coherent", MemEvent, jMed, ActGlobalLoadTxn, 0.8),
		def("gst_incoherent", MemEvent, jMed, ActGlobalStoreTxn, 0.2),
		def("gst_coherent", MemEvent, jMed, ActGlobalStoreTxn, 0.8),
		def("gld_request", MemEvent, jSmall, ActLSU, 0.6),
		def("gst_request", MemEvent, jSmall, ActLSU, 0.4),
	)
	// tlb and prof_trigger padding counters, as on the real GT200
	// profiler (prof_trigger_00..07 are user-armed and mostly noise).
	defs = append(defs,
		def("tlb_hit", MemEvent, jBig, ActGlobalLoadTxn, 0.9, ActGlobalStoreTxn, 0.9),
		def("tlb_miss", MemEvent, jBig, ActGlobalLoadTxn, 0.1, ActGlobalStoreTxn, 0.1),
	)
	for i := 0; i < 6; i++ {
		defs = append(defs, def(fmt.Sprintf("prof_trigger_%02d", i), CoreEvent, jBig,
			ActInstIssued, 0.001*float64(i+1)))
	}
	return defs
}

// fermiDefs lists the 74 counters of the Fermi-era profiler.
func fermiDefs() []Def {
	defs := []Def{
		def("inst_executed", CoreEvent, jSmall, ActInstExecuted, 1.0),
		def("inst_issued", CoreEvent, jSmall, ActInstIssued, 1.0),
		def("inst_issued1_0", CoreEvent, jMed, ActInstIssued, 0.30),
		def("inst_issued2_0", CoreEvent, jMed, ActInstIssued, 0.20),
		def("inst_issued1_1", CoreEvent, jMed, ActInstIssued, 0.30),
		def("inst_issued2_1", CoreEvent, jMed, ActInstIssued, 0.20),
		def("inst_issued_replay", CoreEvent, jMed, ActInstIssued, 0.05, ActDivergent, 0.3),
		def("thread_inst_executed_0", CoreEvent, jSmall, ActInstExecuted, 8.0),
		def("thread_inst_executed_1", CoreEvent, jSmall, ActInstExecuted, 8.0),
		def("thread_inst_executed_2", CoreEvent, jSmall, ActInstExecuted, 8.0),
		def("thread_inst_executed_3", CoreEvent, jSmall, ActInstExecuted, 8.0),
		def("atom_count", MemEvent, jBig, ActGlobalStoreTxn, 0.02),
		def("gred_count", MemEvent, jBig, ActGlobalStoreTxn, 0.01),
		def("branch", CoreEvent, jSmall, ActBranch, 1.0),
		def("divergent_branch", CoreEvent, jSmall, ActDivergent, 1.0),
		def("warps_launched", CoreEvent, jSmall, ActWarpsLaunched, 1.0),
		def("threads_launched", CoreEvent, jSmall, ActThreadsLaunched, 1.0),
		def("sm_cta_launched", CoreEvent, jSmall, ActBlocksLaunched, 1.0),
		def("active_cycles", CoreEvent, jMed, ActActiveCycles, 1.0),
		def("active_warps", CoreEvent, jMed, ActActiveCycles, 24.0),
		def("shared_load", CoreEvent, jSmall, ActShared, 0.6),
		def("shared_store", CoreEvent, jSmall, ActShared, 0.4),
		def("local_load", MemEvent, jMed, ActLSU, 0.02),
		def("local_store", MemEvent, jMed, ActLSU, 0.01),
		def("gld_request", CoreEvent, jSmall, ActLSU, 0.6),
		def("gst_request", CoreEvent, jSmall, ActLSU, 0.4),
	}
	// L1 behaviour, split by load/store and hit/miss.
	defs = append(defs,
		def("l1_global_load_hit", CoreEvent, jSmall, ActL1Hit, 0.7),
		def("l1_global_load_miss", CoreEvent, jSmall, ActL1Miss, 0.7),
		def("l1_global_store_hit", CoreEvent, jMed, ActL1Hit, 0.3),
		def("l1_global_store_miss", CoreEvent, jMed, ActL1Miss, 0.3),
		def("l1_local_load_hit", CoreEvent, jBig, ActL1Hit, 0.02),
		def("l1_local_load_miss", CoreEvent, jBig, ActL1Miss, 0.02),
		def("l1_local_store_hit", CoreEvent, jBig, ActL1Hit, 0.01),
		def("l1_local_store_miss", CoreEvent, jBig, ActL1Miss, 0.01),
		def("l1_shared_bank_conflict", CoreEvent, jBig, ActShared, 0.05, ActDivergent, 0.1),
		def("uncached_global_load_transaction", MemEvent, jMed, ActGlobalLoadTxn, 0.1),
		def("global_store_transaction", MemEvent, jSmall, ActGlobalStoreTxn, 1.0),
	)
	// L2: per-subpartition read/write sector queries and hits (4 subps).
	for sp := 0; sp < 4; sp++ {
		frac := 0.25
		defs = append(defs,
			def(fmt.Sprintf("l2_subp%d_read_sector_queries", sp), MemEvent, jSmall, ActL2Hit, frac, ActL2Miss, frac),
			def(fmt.Sprintf("l2_subp%d_write_sector_queries", sp), MemEvent, jMed, ActGlobalStoreTxn, frac),
			def(fmt.Sprintf("l2_subp%d_read_hit_sectors", sp), MemEvent, jSmall, ActL2Hit, frac),
			def(fmt.Sprintf("l2_subp%d_read_sector_misses", sp), MemEvent, jSmall, ActL2Miss, frac),
		)
	}
	// DRAM: per-partition reads and writes (2 partitions).
	for sp := 0; sp < 2; sp++ {
		defs = append(defs,
			def(fmt.Sprintf("fb_subp%d_read_sectors", sp), MemEvent, jSmall, ActDRAMRead, 0.5),
			def(fmt.Sprintf("fb_subp%d_write_sectors", sp), MemEvent, jSmall, ActDRAMWrite, 0.5),
		)
	}
	// Texture path (unused by most compute kernels → mostly noise).
	defs = append(defs,
		def("tex0_cache_sector_queries", MemEvent, jBig, ActGlobalLoadTxn, 0.02),
		def("tex0_cache_sector_misses", MemEvent, jBig, ActGlobalLoadTxn, 0.01),
		def("tex1_cache_sector_queries", MemEvent, jBig, ActGlobalLoadTxn, 0.02),
		def("tex1_cache_sector_misses", MemEvent, jBig, ActGlobalLoadTxn, 0.01),
		def("l2_subp0_read_tex_sector_queries", MemEvent, jBig, ActGlobalLoadTxn, 0.01),
		def("l2_subp1_read_tex_sector_queries", MemEvent, jBig, ActGlobalLoadTxn, 0.01),
	)
	// Stall reasons.
	defs = append(defs,
		def("stall_memory_dependency", CoreEvent, jMed, ActStallMem, 1.0),
		def("stall_exec_dependency", CoreEvent, jMed, ActStallExec, 1.0),
		def("stall_sync", CoreEvent, jBig, ActStallExec, 0.2, ActShared, 0.05),
	)
	for i := 0; i < 8; i++ {
		defs = append(defs, def(fmt.Sprintf("prof_trigger_%02d", i), CoreEvent, jBig,
			ActInstIssued, 0.001*float64(i+1)))
	}
	return defs
}

// keplerDefs lists the 108 counters of the Kepler-era profiler. Kepler kept
// the Fermi events and split many of them further per scheduler/pipe.
func keplerDefs() []Def {
	defs := []Def{
		def("inst_executed", CoreEvent, jSmall, ActInstExecuted, 1.0),
		def("inst_issued", CoreEvent, jSmall, ActInstIssued, 1.0),
		def("thread_inst_executed", CoreEvent, jSmall, ActInstExecuted, 32.0),
		def("branch", CoreEvent, jSmall, ActBranch, 1.0),
		def("divergent_branch", CoreEvent, jSmall, ActDivergent, 1.0),
		def("warps_launched", CoreEvent, jSmall, ActWarpsLaunched, 1.0),
		def("threads_launched", CoreEvent, jSmall, ActThreadsLaunched, 1.0),
		def("sm_cta_launched", CoreEvent, jSmall, ActBlocksLaunched, 1.0),
		def("active_cycles", CoreEvent, jMed, ActActiveCycles, 1.0),
		def("active_warps", CoreEvent, jMed, ActActiveCycles, 32.0),
		def("elapsed_cycles_sm", CoreEvent, jSmall, ActElapsedCycles, 8.0),
		def("achieved_occupancy", CoreEvent, jMed, ActOccupancy, 1.0),
		def("shared_load", CoreEvent, jSmall, ActShared, 0.6),
		def("shared_store", CoreEvent, jSmall, ActShared, 0.4),
		def("shared_load_replay", CoreEvent, jBig, ActShared, 0.05),
		def("shared_store_replay", CoreEvent, jBig, ActShared, 0.03),
		def("local_load", MemEvent, jMed, ActLSU, 0.02),
		def("local_store", MemEvent, jMed, ActLSU, 0.01),
		def("gld_request", CoreEvent, jSmall, ActLSU, 0.6),
		def("gst_request", CoreEvent, jSmall, ActLSU, 0.4),
		def("global_ld_mem_divergence_replays", CoreEvent, jMed, ActGlobalLoadTxn, 0.1),
		def("global_st_mem_divergence_replays", CoreEvent, jMed, ActGlobalStoreTxn, 0.1),
		def("atom_count", MemEvent, jBig, ActGlobalStoreTxn, 0.02),
		def("gred_count", MemEvent, jBig, ActGlobalStoreTxn, 0.01),
		def("atom_cas_count", MemEvent, jBig, ActGlobalStoreTxn, 0.005),
		def("shared_ld_bank_conflict", CoreEvent, jBig, ActShared, 0.04),
		def("shared_st_bank_conflict", CoreEvent, jBig, ActShared, 0.03),
		def("uncached_global_load_transaction", MemEvent, jMed, ActGlobalLoadTxn, 0.1),
		def("global_store_transaction", MemEvent, jSmall, ActGlobalStoreTxn, 1.0),
		def("not_predicated_off_thread_inst_executed", CoreEvent, jSmall, ActInstExecuted, 30.0),
	}
	// Per-pipe instruction counters (Kepler exposes FU-level issue counts).
	defs = append(defs,
		def("inst_fp_32", CoreEvent, jSmall, ActALU, 0.8),
		def("inst_integer", CoreEvent, jSmall, ActALU, 0.2, ActBranch, 1.0),
		def("inst_fp_64", CoreEvent, jSmall, ActDP, 1.0),
		def("inst_misc", CoreEvent, jMed, ActSFU, 1.0),
		def("inst_compute_ld_st", CoreEvent, jSmall, ActLSU, 1.0),
		def("inst_control", CoreEvent, jSmall, ActBranch, 1.0),
		def("inst_bit_convert", CoreEvent, jBig, ActALU, 0.05),
		def("inst_inter_thread_communication", CoreEvent, jBig, ActShared, 0.02),
	)
	// Per-scheduler issue counters (4 schedulers).
	for sched := 0; sched < 4; sched++ {
		defs = append(defs,
			def(fmt.Sprintf("inst_issued1_sched%d", sched), CoreEvent, jMed, ActInstIssued, 0.15),
			def(fmt.Sprintf("inst_issued2_sched%d", sched), CoreEvent, jMed, ActInstIssued, 0.10),
		)
	}
	// L1.
	defs = append(defs,
		def("l1_global_load_hit", CoreEvent, jSmall, ActL1Hit, 0.7),
		def("l1_global_load_miss", CoreEvent, jSmall, ActL1Miss, 0.7),
		def("l1_global_store_hit", CoreEvent, jMed, ActL1Hit, 0.3),
		def("l1_global_store_miss", CoreEvent, jMed, ActL1Miss, 0.3),
		def("l1_local_load_hit", CoreEvent, jBig, ActL1Hit, 0.02),
		def("l1_local_load_miss", CoreEvent, jBig, ActL1Miss, 0.02),
		def("l1_local_store_hit", CoreEvent, jBig, ActL1Hit, 0.01),
		def("l1_local_store_miss", CoreEvent, jBig, ActL1Miss, 0.01),
		def("l1_shared_bank_conflict", CoreEvent, jBig, ActShared, 0.05, ActDivergent, 0.1),
	)
	// L2, per subpartition (4), read+write queries, hits, misses.
	for sp := 0; sp < 4; sp++ {
		frac := 0.25
		defs = append(defs,
			def(fmt.Sprintf("l2_subp%d_read_sector_queries", sp), MemEvent, jSmall, ActL2Hit, frac, ActL2Miss, frac),
			def(fmt.Sprintf("l2_subp%d_write_sector_queries", sp), MemEvent, jMed, ActGlobalStoreTxn, frac),
			def(fmt.Sprintf("l2_subp%d_read_hit_sectors", sp), MemEvent, jSmall, ActL2Hit, frac),
			def(fmt.Sprintf("l2_subp%d_read_sector_misses", sp), MemEvent, jSmall, ActL2Miss, frac),
			def(fmt.Sprintf("l2_subp%d_total_read_sector_queries", sp), MemEvent, jMed, ActL2Hit, frac, ActL2Miss, frac, ActGlobalLoadTxn, 0.02),
			def(fmt.Sprintf("l2_subp%d_total_write_sector_queries", sp), MemEvent, jMed, ActGlobalStoreTxn, frac*1.05),
		)
	}
	// DRAM, per partition (2), reads/writes plus sysmem.
	for sp := 0; sp < 2; sp++ {
		defs = append(defs,
			def(fmt.Sprintf("fb_subp%d_read_sectors", sp), MemEvent, jSmall, ActDRAMRead, 0.5),
			def(fmt.Sprintf("fb_subp%d_write_sectors", sp), MemEvent, jSmall, ActDRAMWrite, 0.5),
			def(fmt.Sprintf("sysmem_read_transactions_p%d", sp), MemEvent, jBig, ActDRAMRead, 0.005),
			def(fmt.Sprintf("sysmem_write_transactions_p%d", sp), MemEvent, jBig, ActDRAMWrite, 0.005),
		)
	}
	// Texture path.
	defs = append(defs,
		def("tex0_cache_sector_queries", MemEvent, jBig, ActGlobalLoadTxn, 0.02),
		def("tex0_cache_sector_misses", MemEvent, jBig, ActGlobalLoadTxn, 0.01),
		def("tex1_cache_sector_queries", MemEvent, jBig, ActGlobalLoadTxn, 0.02),
		def("tex1_cache_sector_misses", MemEvent, jBig, ActGlobalLoadTxn, 0.01),
		def("tex2_cache_sector_queries", MemEvent, jBig, ActGlobalLoadTxn, 0.02),
		def("tex3_cache_sector_queries", MemEvent, jBig, ActGlobalLoadTxn, 0.02),
	)
	// Stall-reason breakdown (Kepler widened it).
	defs = append(defs,
		def("stall_memory_dependency", CoreEvent, jMed, ActStallMem, 0.9),
		def("stall_exec_dependency", CoreEvent, jMed, ActStallExec, 0.7),
		def("stall_inst_fetch", CoreEvent, jBig, ActStallExec, 0.1),
		def("stall_sync", CoreEvent, jBig, ActStallExec, 0.1, ActShared, 0.05),
		def("stall_texture", CoreEvent, jBig, ActStallMem, 0.02),
		def("stall_constant_memory_dependency", CoreEvent, jBig, ActStallMem, 0.01),
		def("stall_other", CoreEvent, jBig, ActStallExec, 0.1),
	)
	for i := 0; i < 8; i++ {
		defs = append(defs, def(fmt.Sprintf("prof_trigger_%02d", i), CoreEvent, jBig,
			ActInstIssued, 0.001*float64(i+1)))
	}
	return defs
}
