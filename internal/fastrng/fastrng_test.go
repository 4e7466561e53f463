package fastrng

import (
	"math/rand"
	"strconv"
	"testing"
)

// The contract under test: for every seed, a Source's stream — raw and
// through every rand.Rand draw method the repository uses — is
// bit-identical to rand.NewSource(seed).

func testSeeds() []int64 {
	return []int64{
		0, 1, -1, 42, 89482311, 1<<31 - 1, 1 << 31, -(1 << 31),
		1<<62 + 12345, -(1<<62 + 12345), 7_777_777, -42,
	}
}

func TestRawStreamMatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds() {
		ref := rand.NewSource(seed).(rand.Source64)
		got := &Get(seed).Source
		for i := 0; i < 2000; i++ {
			if g, w := got.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 = %#x, want %#x", seed, i, g, w)
			}
		}
		// Int63 path, separately: it shares state with Uint64 but masks.
		ref = rand.NewSource(seed).(rand.Source64)
		got.Seed(seed)
		for i := 0; i < 2000; i++ {
			if g, w := got.Int63(), ref.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 = %#x, want %#x", seed, i, g, w)
			}
		}
	}
}

// TestRandDrawsMatchMathRand drives the draw methods the campaign stack
// actually uses (NormFloat64 for meter/profiler noise, Float64 and Intn
// for fault injection) through rand.Rand on both sources.
func TestRandDrawsMatchMathRand(t *testing.T) {
	for _, seed := range testSeeds() {
		ref := rand.New(rand.NewSource(seed))
		st := Get(seed) // usually the stream the previous seed put back
		got := st.Rand
		for i := 0; i < 1000; i++ {
			if g, w := got.NormFloat64(), ref.NormFloat64(); g != w {
				t.Fatalf("seed %d draw %d: NormFloat64 = %v, want %v", seed, i, g, w)
			}
			if g, w := got.Float64(), ref.Float64(); g != w {
				t.Fatalf("seed %d draw %d: Float64 = %v, want %v", seed, i, g, w)
			}
			if g, w := got.Intn(1<<20+7), ref.Intn(1<<20+7); g != w {
				t.Fatalf("seed %d draw %d: Intn = %d, want %d", seed, i, g, w)
			}
		}
		Put(st)
	}
}

// TestReseedMatchesFreshSource pins the whole point of the package: an
// in-place Seed on a used source must restore the exact fresh-source
// stream, including after partial draws and under a live rand.Rand.
func TestReseedMatchesFreshSource(t *testing.T) {
	st := Get(1)
	src, r := &st.Source, st.Rand
	for _, seed := range testSeeds() {
		// Desynchronize deliberately before reseeding.
		for i := 0; i < 17; i++ {
			r.NormFloat64()
		}
		src.Seed(seed)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			if g, w := r.NormFloat64(), ref.NormFloat64(); g != w {
				t.Fatalf("seed %d draw %d after reseed: %v, want %v", seed, i, g, w)
			}
		}
	}
}

func TestManySequentialSeeds(t *testing.T) {
	src := &Get(0).Source
	for seed := int64(-300); seed < 300; seed++ {
		src.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 50; i++ {
			if g, w := src.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: %#x, want %#x", seed, i, g, w)
			}
		}
	}
}

// TestReseedAtEveryLazyPhase reseeds after k draws for every k that
// puts the cursors at a boundary of the lazy-seeding window — before any
// draw, where the tap stops reading unseeded words (272/273/274), where
// the feed reads its last unseeded word (333/334/335), around the first
// full lap (606/607/608), deep in steady state, and at each batch
// boundary of the seeding turns (3 … 256) — and checks that the
// following stream is exactly math/rand's.
func TestReseedAtEveryLazyPhase(t *testing.T) {
	const next = 2000
	ks := []int{0, 1, 272, 273, 274, 333, 334, 335, 606, 607, 608, 1500,
		2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 127, 128, 255, 256}
	for _, k := range ks {
		for _, seed := range testSeeds() {
			src := &Get(seed ^ 0x5eed).Source
			for i := 0; i < k; i++ {
				src.Uint64()
			}
			src.Seed(seed)
			ref := rand.NewSource(seed).(rand.Source64)
			for i := 0; i < next; i++ {
				var g, w uint64
				if i%2 == 0 {
					g, w = src.Uint64(), ref.Uint64()
				} else {
					g, w = uint64(src.Int63()), uint64(ref.Int63())
				}
				if g != w {
					t.Fatalf("reseed after %d draws, seed %d, draw %d: %#x, want %#x", k, seed, i, g, w)
				}
			}
		}
	}
}

// TestSeedAllocates pins the zero-allocation property of in-place
// reseeding — the profiled win over rand.New(rand.NewSource(seed)).
func TestSeedAllocates(t *testing.T) {
	src := &Get(1).Source
	if n := testing.AllocsPerRun(100, func() { src.Seed(12345) }); n != 0 {
		t.Fatalf("Seed allocates %v objects per call, want 0", n)
	}
}

func BenchmarkSeedInPlace(b *testing.B) {
	src := &Get(1).Source
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i))
	}
}

// BenchmarkReseedCell measures what one measurement cell pays for its
// noise stream: a reseed followed by the draws the cell makes through
// rand.Rand, 17 on average in a fleet sweep and up to a full lap of the
// state.
func BenchmarkReseedCell(b *testing.B) {
	for _, draws := range []int{17, rngLen} {
		b.Run(strconv.Itoa(draws), func(b *testing.B) {
			st := Get(1)
			src, r := &st.Source, st.Rand
			var sink int64
			for i := 0; i < b.N; i++ {
				src.Seed(int64(i))
				for j := 0; j < draws; j++ {
					sink += r.Int63()
				}
			}
			benchSink = uint64(sink)
		})
	}
}

// BenchmarkDraws measures the steady-state draw path alone, the way
// every draw in the campaign stack reaches the source: through a
// rand.Rand, which holds it as a rand.Source interface. The source is
// run past the lazy-seeding window before the timer starts, so no draw
// pays for seeding.
func BenchmarkDraws(b *testing.B) {
	r := Get(1).Rand
	for i := 0; i < 2*rngLen; i++ {
		r.Int63()
	}
	b.Run("Int63", func(b *testing.B) {
		var sink int64
		for i := 0; i < b.N; i++ {
			sink += r.Int63()
		}
		benchSink = uint64(sink)
	})
	b.Run("NormFloat64", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += r.NormFloat64()
		}
		benchSink = uint64(sink)
	})
}

var benchSink uint64

func BenchmarkSeedMathRand(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = rand.New(rand.NewSource(int64(i)))
	}
}
