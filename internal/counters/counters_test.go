package counters

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gpuperf/internal/arch"
)

func TestCardinalitiesMatchPaper(t *testing.T) {
	// Section IV-A: 32 counters for GTX 285, 74 for GTX 460/480, 108 for
	// GTX 680.
	want := map[arch.Generation]int{arch.Tesla: 32, arch.Fermi: 74, arch.Kepler: 108}
	for g, n := range want {
		if got := ForGeneration(g).Len(); got != n {
			t.Errorf("%v: %d counters, want %d", g, got, n)
		}
	}
}

func TestNamesUniqueAndNonEmpty(t *testing.T) {
	for _, g := range []arch.Generation{arch.Tesla, arch.Fermi, arch.Kepler} {
		s := ForGeneration(g)
		seen := map[string]bool{}
		for _, d := range s.Defs {
			if d.Name == "" {
				t.Errorf("%v: empty counter name", g)
			}
			if seen[d.Name] {
				t.Errorf("%v: duplicate counter %q", g, d.Name)
			}
			seen[d.Name] = true
		}
	}
}

func TestIndexLookup(t *testing.T) {
	s := ForGeneration(arch.Kepler)
	for i, d := range s.Defs {
		if got := s.Index(d.Name); got != i {
			t.Errorf("Index(%q) = %d, want %d", d.Name, got, i)
		}
	}
	if s.Index("no_such_counter") != -1 {
		t.Error("Index of unknown counter should be -1")
	}
}

func TestBothClassesPresent(t *testing.T) {
	// The paper's unified model needs both core-events and memory-events
	// on every architecture.
	for _, g := range []arch.Generation{arch.Tesla, arch.Fermi, arch.Kepler} {
		s := ForGeneration(g)
		var core, mem int
		for _, d := range s.Defs {
			if d.Class == CoreEvent {
				core++
			} else {
				mem++
			}
		}
		if core == 0 || mem == 0 {
			t.Errorf("%v: %d core-event and %d mem-event counters; need both", g, core, mem)
		}
	}
}

func TestTeslaHasNoCacheCounters(t *testing.T) {
	s := ForGeneration(arch.Tesla)
	for _, d := range s.Defs {
		if strings.HasPrefix(d.Name, "l1_") || strings.HasPrefix(d.Name, "l2_") {
			t.Errorf("Tesla counter set contains cache counter %q", d.Name)
		}
	}
}

func TestCollectDeterministicWithSameSeed(t *testing.T) {
	s := ForGeneration(arch.Fermi)
	var v Vector
	v[ActInstExecuted] = 1e9
	v[ActLSU] = 2e8
	v[ActL2Hit] = 5e7
	a := s.Collect(&v, rand.New(rand.NewSource(7)))
	b := s.Collect(&v, rand.New(rand.NewSource(7)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("counter %d differs across identical seeds: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestCollectNilRNGIsExact(t *testing.T) {
	s := ForGeneration(arch.Kepler)
	var v Vector
	v[ActInstExecuted] = 1000
	idx := s.Index("inst_executed")
	got := s.Collect(&v, nil)
	if got[idx] != 1000 {
		t.Errorf("inst_executed = %g, want 1000 (exact with nil rng)", got[idx])
	}
}

// TestCollectRepeatable pins that a counter's weighted sum is evaluated
// in one fixed order: repeated nil-rng Collect calls on one vector must
// agree to the last bit on every generation. Kepler's three-term
// l2_subp*_total_read_sector_queries counters are the ones an unordered
// sum rounds differently from call to call.
func TestCollectRepeatable(t *testing.T) {
	// Event totals of one magnitude with full-width mantissas. The L2
	// and global-load totals are chosen so that 0.25·hit + 0.25·miss +
	// 0.02·loads rounds to two different values depending on the order.
	var v Vector
	rng := rand.New(rand.NewSource(1))
	for i := range v {
		v[i] = rng.Float64() * 1e6
	}
	v[ActL2Hit], v[ActL2Miss], v[ActGlobalLoadTxn] = 237964.62709189137, 544229.2252959518, 369955.1665480792
	v[ActOccupancy] = 0.61803398875
	for _, g := range []arch.Generation{arch.Tesla, arch.Fermi, arch.Kepler, arch.GCN} {
		s := ForGeneration(g)
		want := s.Collect(&v, nil)
		for call := 0; call < 2000; call++ {
			got := s.Collect(&v, nil)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v: call %d: %s = %v, first call gave %v",
						g, call, s.Defs[i].Name, got[i], want[i])
				}
			}
		}
	}
}

// TestForGenerationShared pins that every call for a generation returns
// the one process-wide set instead of rebuilding it.
func TestForGenerationShared(t *testing.T) {
	for _, g := range []arch.Generation{arch.Tesla, arch.Fermi, arch.Kepler, arch.GCN} {
		if a, b := ForGeneration(g), ForGeneration(g); a != b {
			t.Errorf("%v: ForGeneration returned two different sets", g)
		}
	}
	if n := testing.AllocsPerRun(100, func() { ForGeneration(arch.Kepler) }); n != 0 {
		t.Errorf("ForGeneration allocates %v objects per call, want 0", n)
	}
}

func TestCollectNonNegativeProperty(t *testing.T) {
	s := ForGeneration(arch.Kepler)
	f := func(seed int64, insts, lsu, l2 uint32) bool {
		var v Vector
		v[ActInstExecuted] = float64(insts)
		v[ActInstIssued] = float64(insts) * 1.1
		v[ActLSU] = float64(lsu)
		v[ActL2Hit] = float64(l2)
		rng := rand.New(rand.NewSource(seed))
		for _, x := range s.Collect(&v, rng) {
			if x < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestVectorAdd(t *testing.T) {
	var a, b Vector
	a[ActInstExecuted] = 10
	a[ActOccupancy] = 0.5
	b[ActInstExecuted] = 5
	b[ActOccupancy] = 0.75
	a.Add(&b)
	if a[ActInstExecuted] != 15 {
		t.Errorf("Add summed instructions to %g, want 15", a[ActInstExecuted])
	}
	if a[ActOccupancy] != 0.75 {
		t.Errorf("Add should max occupancy; got %g, want 0.75", a[ActOccupancy])
	}
}

func TestVectorScale(t *testing.T) {
	var v Vector
	v[ActDRAMRead] = 100
	v[ActOccupancy] = 0.6
	v.Scale(2)
	if v[ActDRAMRead] != 200 {
		t.Errorf("Scale: DRAM reads %g, want 200", v[ActDRAMRead])
	}
	if v[ActOccupancy] != 0.6 {
		t.Errorf("Scale must not touch occupancy; got %g", v[ActOccupancy])
	}
}

func TestCollectLinearityProperty(t *testing.T) {
	// Property: with nil rng, Collect is linear in the activity vector
	// for event-total counters (doubling all totals doubles the value).
	s := ForGeneration(arch.Fermi)
	f := func(insts, dram uint16) bool {
		var v Vector
		v[ActInstExecuted] = float64(insts)
		v[ActDRAMRead] = float64(dram)
		one := s.Collect(&v, nil)
		v.Scale(2)
		two := s.Collect(&v, nil)
		for i := range one {
			if diff := two[i] - 2*one[i]; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGCNCounterSet(t *testing.T) {
	// Future-work extension: the AMD GCN profiler set has 48 counters,
	// both event classes, and wires into ForGeneration like the NVIDIA
	// sets.
	s := ForGeneration(arch.GCN)
	if s.Len() != 48 {
		t.Errorf("GCN set has %d counters, want 48", s.Len())
	}
	var coreN, memN int
	for _, d := range s.Defs {
		if d.Class == CoreEvent {
			coreN++
		} else {
			memN++
		}
	}
	if coreN == 0 || memN == 0 {
		t.Errorf("GCN set needs both classes; got %d core, %d mem", coreN, memN)
	}
	if s.Index("VALUInsts") < 0 || s.Index("FetchSize") < 0 {
		t.Error("GCN set missing canonical counters")
	}
}

func TestForGenerationPanicsOnUnknown(t *testing.T) {
	// Every call must panic, not only the first: memoization must not
	// record a failed lookup as done.
	for call := 0; call < 3; call++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("call %d: ForGeneration should panic on an unregistered generation", call)
				}
			}()
			ForGeneration(arch.Generation(99))
		}()
	}
}
