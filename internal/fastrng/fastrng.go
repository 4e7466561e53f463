// Package fastrng provides a reseedable drop-in replacement for the
// additive lagged-Fibonacci source behind math/rand.NewSource, emitting
// the exact same stream for every seed.
//
// Why it exists: the campaign engines reseed their noise source once per
// measurement cell (driver.Device.SeedScoped) so that every cell's noise
// stream is independent of sweep order, retries and worker count. With
// math/rand every reseed allocates a fresh 4.9 KB rngSource and walks
// ~1800 sequential Lehmer steps to fill all 607 state words, yet a cell
// draws only a handful of values (a fleet cell averages 17, and a third
// of cells draw none). This package makes a reseed cost only the words
// the cell's draws read, while keeping the byte-identity contract:
//
//   - Source is reseeded in place — zero allocations per reseed.
//   - Seeding is lazy. Seed records the normalized seed and rewinds the
//     cursors; nothing else. State words are seeded when the draws
//     reach them, from the closed form of the same Lehmer chain,
//     x_j = 48271^j · x_0 mod 2³¹−1, with the multiplier powers
//     precomputed per word — three independent multiply-reduce pairs
//     per word instead of three sequential chain steps.
//   - The access order makes the bookkeeping free. After a reseed, draw
//     k reads the feed word 333−k and the tap word 606−k (mod 607), and
//     each word is overwritten the first time it is the feed. So the
//     feed word is unseeded for k ≤ 333, the tap word for k ≤ 272, and
//     the cursors alone say which words still need seeding.
//   - The generator state update replicates math/rand's rngSource field
//     for field. The additive constants folded into the seeded state
//     (math/rand's unexported rngCooked table) are recovered
//     algebraically at init from the observable output stream of
//     rand.NewSource(1) — no constants are copied from the Go sources,
//     and any divergence fails the equivalence tests immediately.
//
// Cost: Seed is a few stores. Until every word is seeded, a draw that
// reaches unseeded words takes an out-of-line turn that seeds the words
// of as many further draws as have been made since the reseed (1, 2, 4,
// …), so a cell that draws d values seeds at most about 4d words in
// log₂ d turns, and the whole state by its 256th draw — never more than
// the 607 words an eager reseed writes. In steady state a draw is one
// compare against the next turn plus the inlined recurrence step; the
// turn that wraps a cursor runs twice per 607 draws.
//
// The stream equality is a hard contract, not an optimization detail:
// every golden artifact in this repository (seed-42 report, traces,
// metrics expositions) encodes noise drawn through rand.Rand from this
// stream. Tests in this package compare Int63/Uint64/Float64/NormFloat64
// streams against math/rand across many seeds, and reseeds at every
// phase of the lazy window.
//
// Caveat: a rand.Rand wrapping a Source may be reseeded through the
// Source while live — all rand.Rand draw methods are stateless between
// calls — except rand.Rand.Read, which buffers partial words internally.
// Nothing in this repository uses Read; new code must not start.
package fastrng

import "math/rand"

const (
	rngLen  = 607 // degree of the lagged-Fibonacci recurrence
	rngTap  = 273 // distance of the second tap
	lehmerM = 1<<31 - 1
	lehmerA = 48271
)

// wordPow[i] holds 48271^j mod 2³¹−1 for the three chain steps
// j = 21+3i, 22+3i, 23+3i that math/rand builds state word i from after
// its 20 warm-up steps: the closed form of the MINSTD Lehmer chain it
// seeds its state vector with.
var wordPow [rngLen][3]uint64

// cooked mirrors math/rand's rngCooked table: the per-word additive
// constants XORed into the seeded state vector. Recovered at init (see
// recoverCooked); never copied from the math/rand sources.
var cooked [rngLen]uint64

func init() {
	p := uint64(1)
	for j := 1; j <= 23+3*(rngLen-1); j++ {
		p = p * lehmerA % lehmerM
		if j >= 21 {
			wordPow[(j-21)/3][(j-21)%3] = p
		}
	}
	recoverCooked()
}

// recoverCooked reconstructs the additive constants from the output
// stream of the reference source. The first 607 outputs of a freshly
// seeded rngSource are o_k = vec[feed_k] + vec[tap_k] (int64 wraparound)
// with feed_k = (333−k) mod 607 and tap_k = (606−k) mod 607, and each
// position is overwritten for the first time exactly when it is the feed.
// Working through the index arithmetic:
//
//   - for k ∈ [273, 606] the tap was overwritten at step k−273, so
//     o_k = vec₀[feed_k] + o_{k−273} — yielding the original words at
//     positions [0,60] ∪ [334,606];
//   - for k ∈ [0, 272] both operands are original:
//     o_k = vec₀[333−k] + vec₀[606−k], and 606−k is already known from
//     the first group — yielding positions [61, 333].
//
// The seeded words are vec₀[i] = int64(u_i ^ cooked[i]) where u_i is the
// closed-form Lehmer chain of the seed, so XORing u_i back out exposes
// the constants.
func recoverCooked() {
	ref := rand.NewSource(1).(rand.Source64)
	var o, vec0 [rngLen]int64
	for k := range o {
		o[k] = int64(ref.Uint64())
	}
	for k := rngTap; k < rngLen; k++ {
		vec0[(333-k+rngLen)%rngLen] = o[k] - o[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		vec0[333-k] = o[k] - vec0[606-k]
	}
	x := seedWord(1)
	for i := range cooked {
		cooked[i] = chainWord(x, &wordPow[i]) ^ uint64(vec0[i])
	}
}

// seedWord normalizes a seed exactly as math/rand does before the Lehmer
// chain starts.
func seedWord(seed int64) uint64 {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// chainWord returns the uncooked state word built from the three chain
// steps in pow: x0 · 48271^j mod 2³¹−1 for each, shifted together as
// math/rand does. Both factors of each product are below 2³¹, so it
// fits a uint64 exactly.
func chainWord(x0 uint64, pow *[3]uint64) uint64 {
	return x0*pow[0]%lehmerM<<40 ^ x0*pow[1]%lehmerM<<20 ^ x0*pow[2]%lehmerM
}

// Source is a reseedable math/rand-compatible random source: for every
// seed, its Int63/Uint64 stream is bit-identical to
// rand.NewSource(seed). The zero value is not seeded; call Seed first
// (New does). Not goroutine-safe, exactly like rand.NewSource.
type Source struct {
	tap, feed int
	// turn is the feed cursor value at which a draw must leave the
	// inlined step: where a cursor wraps, or, while the lazy window is
	// open, where the seeded words run out (rngLen right after Seed, so
	// the first draw turns).
	turn int
	// x0 is the normalized seed while some words are still unseeded; 0
	// once every word is seeded (seedWord never returns 0).
	x0  uint64
	vec [rngLen]int64
}

// The cursor geometry, in feed-cursor terms: tap = feed − tapWrap
// (mod rngLen), so the tap wraps when the feed cursor reaches tapWrap
// and the feed wraps at 0. A fresh seed starts at feed = tapWrap with
// the tap about to wrap.
const tapWrap = rngLen - rngTap

var (
	_ rand.Source   = (*Source)(nil)
	_ rand.Source64 = (*Source)(nil)
)

// New returns a seeded Source.
func New(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// NewRand returns a seeded Source and a rand.Rand drawing from it.
// Reseed through the Source to reuse both allocations; see the package
// comment for the rand.Rand.Read caveat.
func NewRand(seed int64) (*Source, *rand.Rand) {
	s := New(seed)
	return s, rand.New(s)
}

// Seed resets the source to the exact state rand.NewSource(seed) starts
// in, reusing the receiver's storage. It only records the normalized
// seed and rewinds the cursors, so it costs a few stores: the state
// words are seeded from the closed-form Lehmer chain as the following
// draws reach them (see the package comment), and a reseed that is
// never drawn from costs nothing more.
func (s *Source) Seed(seed int64) {
	s.tap, s.feed = 0, tapWrap
	s.turn = rngLen
	s.x0 = seedWord(seed)
}

// seedWords writes the seeded values of state words [lo, hi).
func (s *Source) seedWords(lo, hi int) {
	x := s.x0
	vec := s.vec[lo:hi]
	pow, ck := wordPow[lo:hi], cooked[lo:hi]
	pow, ck = pow[:len(vec)], ck[:len(vec)]
	for i := range vec {
		vec[i] = int64(chainWord(x, &pow[i]) ^ ck[i])
	}
}

// step is the steady-state draw: the lagged-Fibonacci recurrence of
// math/rand's rngSource (including int64 wraparound) for cursors that
// neither wrap nor read an unseeded word. It must stay inlinable — it
// is the whole per-draw cost of Int63 and Uint64 between turns.
func (s *Source) step() uint64 {
	s.tap--
	s.feed--
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// advance prepares the cursors for the next step when the feed cursor
// has reached s.turn: it wraps whichever cursor is at 0, seeds the
// words the coming draws read while the lazy window is open, and sets
// the next turn.
//
// Inside the window the draws from here on read feed words s.feed−1,
// s.feed−2, … (all unseeded) and tap words s.tap−1, s.tap−2, …
// (unseeded while at or above tapWrap; below it the feed has written
// them). advance seeds the words of as many draws as have been made
// since the reseed, plus one, in two tight loops: a stream seeds at most
// about twice the words it reads, in a logarithmic number of turns.
func (s *Source) advance() {
	if s.tap == 0 {
		s.tap = rngLen
	}
	if s.feed == 0 {
		s.feed = rngLen
	}
	if s.x0 != 0 {
		n := min(tapWrap-s.feed+1, s.feed)
		s.seedWords(s.feed-n, s.feed)
		if s.tap > tapWrap {
			s.seedWords(max(s.tap-n, tapWrap), s.tap)
		}
		s.turn = s.feed - n
		if s.turn == 0 {
			s.x0 = 0 // every word is seeded once these draws are made
		}
		return
	}
	if s.feed > tapWrap {
		s.turn = tapWrap
	} else {
		s.turn = 0
	}
}

// Uint64 advances the lagged-Fibonacci recurrence one step, replicating
// math/rand's rngSource.Uint64 exactly.
func (s *Source) Uint64() uint64 {
	if s.feed > s.turn {
		return s.step()
	}
	s.advance()
	return s.step()
}

// Int63 returns the low 63 bits of the next word, like math/rand. It
// repeats Uint64's body rather than calling it, so a draw through
// rand.Rand stays one call deep.
func (s *Source) Int63() int64 {
	if s.feed > s.turn {
		return int64(s.step() &^ (1 << 63))
	}
	s.advance()
	return int64(s.step() &^ (1 << 63))
}
