package fleet

import (
	"math"
	"math/bits"
	"sort"
	"sync"

	"gpuperf/internal/characterize"
)

// The aggregator is the reason the fleet report can be byte-identical
// regardless of shard count: every fold is carried in exact integer
// arithmetic (micro-unit sums, 128-bit sums of squares, fixed-bin
// histograms, order-statistic trims with a total tiebreak), which makes
// each fold associative AND commutative — float addition is neither.
// Per-device values are quantized once at ingestion; derived floats
// (means, variances, quantiles) are computed once at Finalize from the
// merged integers. Merge order, shard partition and row arrival order
// therefore cannot change a single output byte.

// microUnit quantizes a measurement into integer micro-units.
const microUnit = 1e6

// extremeK bounds the per-benchmark extreme lists (top/bottom devices by
// improvement). Outlier flagging reports at most extremeK devices per
// side; a population with more > 3σ devices reports the most extreme
// ones, which Finalize notes via Dist.N vs the outlier count.
const extremeK = 8

func micro(v float64) int64 { return int64(math.Round(v * microUnit)) }

func fromMicro(m int64) float64 { return float64(m) / microUnit }

// uint128 is an unsigned 128-bit accumulator for sums of squared
// micro-values, which overflow int64 at fleet scale.
type uint128 struct{ hi, lo uint64 }

func (a uint128) add(b uint128) uint128 {
	lo, carry := bits.Add64(a.lo, b.lo, 0)
	hi, _ := bits.Add64(a.hi, b.hi, carry)
	return uint128{hi: hi, lo: lo}
}

func (a uint128) float() float64 {
	return float64(a.hi)*0x1p64 + float64(a.lo)
}

func sq128(m int64) uint128 {
	u := uint64(m)
	if m < 0 {
		u = uint64(-m)
	}
	hi, lo := bits.Mul64(u, u)
	return uint128{hi: hi, lo: lo}
}

// stat is an exact count/sum/sum-of-squares/min/max fold over quantized
// values.
type stat struct {
	n    int64
	sum  int64
	sq   uint128
	minM int64
	maxM int64
}

func (s *stat) add(m int64) {
	if s.n == 0 || m < s.minM {
		s.minM = m
	}
	if s.n == 0 || m > s.maxM {
		s.maxM = m
	}
	s.n++
	s.sum += m
	s.sq = s.sq.add(sq128(m))
}

func (s *stat) merge(o stat) {
	if o.n == 0 {
		return
	}
	if s.n == 0 || o.minM < s.minM {
		s.minM = o.minM
	}
	if s.n == 0 || o.maxM > s.maxM {
		s.maxM = o.maxM
	}
	s.n += o.n
	s.sum += o.sum
	s.sq = s.sq.add(o.sq)
}

func (s *stat) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return fromMicro(s.sum) / float64(s.n)
}

func (s *stat) stddev() float64 {
	if s.n < 2 {
		return 0
	}
	n := float64(s.n)
	mean := float64(s.sum) / n // micro units
	v := s.sq.float()/n - mean*mean
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v) / microUnit
}

// sketch is a fixed-bin integer histogram: a quantile sketch whose merge
// is exact bin-wise addition. Geometry is fixed per metric at
// construction, so every shard bins identically.
type sketch struct {
	lo    float64 // left edge of bin 0
	width float64
	bins  []int64
	under int64
	over  int64
}

func newSketch(lo, width float64, n int) *sketch {
	return &sketch{lo: lo, width: width, bins: make([]int64, n)}
}

func (k *sketch) add(v float64) {
	i := int(math.Floor((v - k.lo) / k.width))
	switch {
	case i < 0:
		k.under++
	case i >= len(k.bins):
		k.over++
	default:
		k.bins[i]++
	}
}

func (k *sketch) merge(o *sketch) {
	k.under += o.under
	k.over += o.over
	for i := range k.bins {
		k.bins[i] += o.bins[i]
	}
}

// quantile returns the q-quantile as the midpoint of the bin holding
// rank ⌊q·(n−1)⌋; values beyond the geometry resolve to the exact min or
// max carried alongside (the caller passes the stat's bounds). Exact
// integer rank selection over merged integer bins: deterministic.
func (k *sketch) quantile(q, minV, maxV float64) float64 {
	n := k.under + k.over
	for _, b := range k.bins {
		n += b
	}
	if n == 0 {
		return 0
	}
	rank := int64(math.Floor(q * float64(n-1)))
	if rank < k.under {
		return minV
	}
	cum := k.under
	for i, b := range k.bins {
		cum += b
		if rank < cum {
			return k.lo + (float64(i)+0.5)*k.width
		}
	}
	return maxV
}

// deviceValue is one device's quantized metric, ordered by
// (value, device name) — a total order, so trimmed extreme lists merge
// associatively.
type deviceValue struct {
	Micro int64
	Board string
}

// extremes keeps the K largest and K smallest deviceValues. Merge is
// concat + sort + trim under the total order — associative and
// commutative because the order is total and the trim is a pure function
// of the merged set.
type extremes struct {
	top    []deviceValue // descending value, ascending name
	bottom []deviceValue // ascending value, ascending name
}

func (e *extremes) add(v deviceValue) {
	e.top = trimExtremes(append(e.top, v), false)
	e.bottom = trimExtremes(append(e.bottom, v), true)
}

func (e *extremes) merge(o *extremes) {
	e.top = trimExtremes(append(e.top, o.top...), false)
	e.bottom = trimExtremes(append(e.bottom, o.bottom...), true)
}

func trimExtremes(vs []deviceValue, ascending bool) []deviceValue {
	sort.Slice(vs, func(a, b int) bool {
		if vs[a].Micro != vs[b].Micro {
			if ascending {
				return vs[a].Micro < vs[b].Micro
			}
			return vs[a].Micro > vs[b].Micro
		}
		return vs[a].Board < vs[b].Board
	})
	// A device appears once per fold, but a resumed merge may see the
	// same (value, board) from a replayed shard — dedup keeps the fold
	// idempotent there.
	out := vs[:0]
	for i, v := range vs {
		if i > 0 && v == vs[i-1] {
			continue
		}
		out = append(out, v)
	}
	if len(out) > extremeK {
		out = out[:extremeK]
	}
	return out
}

// pairAgg folds one (benchmark, pair) population cell.
type pairAgg struct {
	cells       int64
	quarantined int64
	time        stat // seconds per iteration
	watts       stat
	energy      stat // joules per iteration
}

// benchAgg folds one benchmark's population.
type benchAgg struct {
	devices    int64 // BenchResults folded
	cells      int64
	noBaseline int64 // devices with no default or no best pair
	pairs      map[string]*pairAgg
	best       map[string]int64 // best-pair tally
	improve    stat             // Fig. 4 improvement %, micro-percent
	perfLoss   stat
	improveSk  *sketch
	ext        extremes // per-device improvement extremes
}

func newBenchAgg() *benchAgg {
	return &benchAgg{
		pairs: make(map[string]*pairAgg),
		best:  make(map[string]int64),
		// −50%..+150% in half-percent bins covers any plausible
		// improvement population; outliers land in under/over and resolve
		// to the exact min/max.
		improveSk: newSketch(-50, 0.5, 400),
	}
}

// Aggregate is the streaming fleet fold: a characterize.RowSink that
// consumes sweep streams from any number of devices and shards. Safe for
// concurrent use by sweep workers; per-shard Aggregates merge
// associatively (Merge) into the fleet total.
type Aggregate struct {
	mu      sync.Mutex
	rows    int64
	benches map[string]*benchAgg
}

// NewAggregate returns an empty fold.
func NewAggregate() *Aggregate {
	return &Aggregate{benches: make(map[string]*benchAgg)}
}

func (a *Aggregate) bench(name string) *benchAgg {
	b := a.benches[name]
	if b == nil {
		b = newBenchAgg()
		a.benches[name] = b
	}
	return b
}

// ConsumeRow folds one resolved cell into the per-(benchmark, pair)
// population statistics.
func (a *Aggregate) ConsumeRow(r characterize.Row) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rows++
	b := a.bench(r.Bench)
	b.cells++
	key := r.Result.Pair.String()
	p := b.pairs[key]
	if p == nil {
		p = &pairAgg{}
		b.pairs[key] = p
	}
	p.cells++
	if r.Result.Quarantined {
		p.quarantined++
		return
	}
	p.time.add(micro(r.Result.TimePerIter))
	p.watts.add(micro(r.Result.AvgWatts))
	p.energy.add(micro(r.Result.EnergyPerIter))
}

// ConsumeBench folds one device's completed benchmark: the best-pair
// tally and the population distribution of best-over-default savings.
func (a *Aggregate) ConsumeBench(r *characterize.BenchResult) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.bench(r.Benchmark)
	b.devices++
	best := r.Best()
	if best != nil {
		b.best[best.Pair.String()]++
	}
	if best == nil || r.Default() == nil {
		b.noBaseline++
		return
	}
	imp := micro(r.ImprovementPct())
	b.improve.add(imp)
	b.perfLoss.add(micro(r.PerfLossPct()))
	b.improveSk.add(fromMicro(imp))
	b.ext.add(deviceValue{Micro: imp, Board: r.Board})
}

// Merge folds another Aggregate into this one. Exact integer merges
// throughout: Merge(x, Merge(y, z)) and Merge(Merge(x, y), z) produce
// identical state for any grouping and order — the property the
// shard-count byte-identity test pins.
func (a *Aggregate) Merge(o *Aggregate) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rows += o.rows
	for name, ob := range o.benches {
		b := a.bench(name)
		b.devices += ob.devices
		b.cells += ob.cells
		b.noBaseline += ob.noBaseline
		for key, op := range ob.pairs {
			p := b.pairs[key]
			if p == nil {
				p = &pairAgg{}
				b.pairs[key] = p
			}
			p.cells += op.cells
			p.quarantined += op.quarantined
			p.time.merge(op.time)
			p.watts.merge(op.watts)
			p.energy.merge(op.energy)
		}
		for key, n := range ob.best {
			b.best[key] += n
		}
		b.improve.merge(ob.improve)
		b.perfLoss.merge(ob.perfLoss)
		b.improveSk.merge(ob.improveSk)
		b.ext.merge(&ob.ext)
	}
}
