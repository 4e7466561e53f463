package driver

import (
	"container/list"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
	"gpuperf/internal/counters"
	"gpuperf/internal/meter"
	"gpuperf/internal/power"
)

// The launch cache memoizes the *noiseless* outcome of a kernel launch:
// the simulated execution time, the per-launch power waveform, and the
// base activity vector. All of these are pure functions of (board spec,
// programmed clock pair, kernel description) — the interval simulator and
// the hardware power model draw no randomness. Everything stochastic
// (profiler counter jitter, meter sampling noise) is applied *after* a
// cache lookup, from the device's own rng, so a run consumes exactly the
// same noise stream whether its launches hit or miss the cache and the
// results are byte-identical either way.

// launchKey identifies one cacheable launch. The profiler flag is part of
// the key even though the cached payload is noise-free: keeping profiled
// and unprofiled populations separate makes the cache's behaviour easy to
// audit per ISSUE of record, at the cost of at most doubling entries.
type launchKey struct {
	spec      uint64 // board-spec fingerprint (full contents, not the name)
	pair      clock.Pair
	kernel    uint64 // gpu.KernelDesc fingerprint
	profiling bool
}

// cachedLaunch is the immutable noiseless payload. The trace must never be
// handed to callers directly — meter.Trace.Append mutates its last segment
// in place, so exposure requires a copy (see Device.Launch).
type cachedLaunch struct {
	time  float64
	trace meter.Trace
	acts  counters.Vector
	// scopeJ is the launch's GPU-domain energy split by power scope
	// (core vs memory, joules) — the noiseless per-scope integral the
	// live telemetry fan-out scales into watts. Pure function of the
	// same inputs as the trace, so cache hits and misses agree.
	scopeJ power.Breakdown
}

// DefaultSharedLaunchCacheEntries bounds the process-wide cache. A full
// reproduction touches a few thousand distinct (spec, pair, kernel)
// combinations; entries are a few hundred bytes each.
const DefaultSharedLaunchCacheEntries = 16384

// defaultLaunchCacheShards is the shard count of the process-wide cache.
// Every worker of a parallel sweep hits the shared cache on every launch,
// so a single mutex serializes the whole fleet; sixteen shards keep the
// probability of two workers colliding on one lock low while the per-shard
// LRU stays a plain list+map. Must be a power of two.
const defaultLaunchCacheShards = 16

// LaunchCache is a concurrency-safe, size-bounded LRU of noiseless launch
// results, shareable between devices and goroutines. The key space is
// partitioned into independently locked shards; recency is tracked per
// shard, so eviction approximates LRU over the whole cache (exact LRU
// within a shard). The capacity bound is exact: shard capacities sum to at
// most the requested total.
type LaunchCache struct {
	shards []cacheShard
	mask   uint64
}

// cacheShard is one independently locked LRU partition.
type cacheShard struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[launchKey]*list.Element
}

type cacheEntry struct {
	key launchKey
	val *cachedLaunch
}

// NewLaunchCache returns an empty cache holding at most capacity entries.
func NewLaunchCache(capacity int) *LaunchCache {
	return newLaunchCache(capacity, defaultLaunchCacheShards)
}

// newLaunchCache builds a cache with an explicit shard count (the
// contention microbenchmark compares shard counts through this). The count
// is rounded down to a power of two and capped so no shard's capacity
// rounds to zero.
func newLaunchCache(capacity, shards int) *LaunchCache {
	if capacity < 1 {
		capacity = 1
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity
	}
	// Largest power of two ≤ shards, so the index mask works.
	shards = 1 << (bits.Len(uint(shards)) - 1)
	c := &LaunchCache{shards: make([]cacheShard, shards), mask: uint64(shards - 1)}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			cap:   capacity / shards,
			order: list.New(),
			items: make(map[launchKey]*list.Element),
		}
	}
	return c
}

// shardIndex spreads a key across shards. The spec and kernel fields are
// already FNV-1a digests, but a sweep holds spec constant and steps pairs
// in a tiny enum, so the low bits need remixing (a splitmix64-style
// finalizer) before masking.
func (c *LaunchCache) shardIndex(k launchKey) uint64 {
	h := k.spec ^ bits.RotateLeft64(k.kernel, 29)
	h ^= uint64(k.pair.Core)<<8 | uint64(k.pair.Mem)<<4
	if k.profiling {
		h = ^h
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h & c.mask
}

// Len reports the current number of cached launches.
func (c *LaunchCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

func (c *LaunchCache) get(k launchKey) (*cachedLaunch, bool) {
	s := &c.shards[c.shardIndex(k)]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.getLocked(k)
}

func (c *LaunchCache) put(k launchKey, v *cachedLaunch) {
	s := &c.shards[c.shardIndex(k)]
	s.mu.Lock()
	defer s.mu.Unlock()
	s.putLocked(k, v)
}

// getBatch looks up keys[i] for every i with out[i] == nil, filling out[i]
// on a hit, and reports the number of hits. Each shard's lock is taken at
// most once regardless of how many keys land on it — the point of the
// batched sweep path.
func (c *LaunchCache) getBatch(keys []launchKey, out []*cachedLaunch) int {
	hits := 0
	for si := range c.shards {
		s := &c.shards[si]
		locked := false
		for i, k := range keys {
			if out[i] != nil || c.shardIndex(k) != uint64(si) {
				continue
			}
			if !locked {
				s.mu.Lock()
				locked = true
			}
			if v, ok := s.getLocked(k); ok {
				out[i] = v
				hits++
			}
		}
		if locked {
			s.mu.Unlock()
		}
	}
	return hits
}

// putBatch inserts all entries, taking each shard's lock at most once.
func (c *LaunchCache) putBatch(entries []cacheEntry) {
	for si := range c.shards {
		s := &c.shards[si]
		locked := false
		for _, e := range entries {
			if c.shardIndex(e.key) != uint64(si) {
				continue
			}
			if !locked {
				s.mu.Lock()
				locked = true
			}
			s.putLocked(e.key, e.val)
		}
		if locked {
			s.mu.Unlock()
		}
	}
}

func (s *cacheShard) getLocked(k launchKey) (*cachedLaunch, bool) {
	el, ok := s.items[k]
	if !ok {
		return nil, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

func (s *cacheShard) putLocked(k launchKey, v *cachedLaunch) {
	if el, ok := s.items[k]; ok {
		s.order.MoveToFront(el)
		el.Value.(*cacheEntry).val = v
		return
	}
	s.items[k] = s.order.PushFront(&cacheEntry{key: k, val: v})
	for len(s.items) > s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.items, oldest.Value.(*cacheEntry).key)
	}
}

// Process-wide cache shared by every device, plus a global enable switch.
// Both are read on the launch path and written only by setup code
// (cmd flags, tests), hence the atomics.
var (
	launchCachingOff atomic.Bool // zero value: caching enabled
	sharedCache      atomic.Pointer[LaunchCache]
)

func init() {
	sharedCache.Store(NewLaunchCache(DefaultSharedLaunchCacheEntries))
}

// SetLaunchCachingEnabled globally enables or disables launch memoization
// for devices opened afterwards (the uncached reference mode of cmd/paper
// -nocache). Cached and uncached runs are byte-identical by construction;
// the switch exists so that claim stays checkable.
func SetLaunchCachingEnabled(on bool) { launchCachingOff.Store(!on) }

// LaunchCachingEnabled reports the global switch.
func LaunchCachingEnabled() bool { return !launchCachingOff.Load() }

// PushLaunchCachingEnabled flips the global caching switch and returns a
// restore function that puts the previous state back — the save/restore
// idiom tests must use so a failing test cannot leak a flipped switch
// into the rest of the suite:
//
//	defer driver.PushLaunchCachingEnabled(false)()
func PushLaunchCachingEnabled(on bool) (restore func()) {
	prev := !launchCachingOff.Swap(!on)
	return func() { launchCachingOff.Store(!prev) }
}

// SetSharedLaunchCache replaces the process-wide cache (nil keeps devices
// on their per-device caches only).
func SetSharedLaunchCache(c *LaunchCache) { sharedCache.Store(c) }

// PushSharedLaunchCache swaps in a replacement process-wide cache (nil to
// detach) and returns a restore function for the previous one — the
// save/restore idiom for tests that need an isolated or absent shared
// cache.
func PushSharedLaunchCache(c *LaunchCache) (restore func()) {
	prev := sharedCache.Swap(c)
	return func() { sharedCache.Store(prev) }
}

// SharedLaunchCache returns the process-wide cache, or nil when unset.
func SharedLaunchCache() *LaunchCache { return sharedCache.Load() }

// DisableLaunchCache detaches this device from both its per-device cache
// and the shared cache; every subsequent launch re-runs the simulator.
// Determinism tests use this as the uncached reference.
func (d *Device) DisableLaunchCache() {
	d.cache = nil
	d.useShared = false
}

// specFingerprint digests the complete spec contents, field by field in
// declaration order: integers and float bit patterns as 8 little-endian
// bytes, strings length-prefixed, bools as one byte. Hashing the full
// value rather than the board name matters: the ablation experiments boot
// modified specs (flattened voltage curves, disabled caches) that keep the
// original name, and those must never share cache entries with the
// unmodified board. TestSpecFingerprintCoversEveryField perturbs every
// field of arch.Spec through reflection, so a field added to Spec without
// a line here fails that test.
//
//gpulint:deterministic
func specFingerprint(spec *arch.Spec) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:]) // fnv: hash.Hash.Write never errors
	}
	i64 := func(v int) { u64(uint64(v)) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	f64s := func(vs [3]float64) {
		for _, v := range vs {
			f64(v)
		}
	}

	u64(uint64(len(spec.Name)))
	_, _ = h.Write([]byte(spec.Name))
	i64(int(spec.Generation))

	i64(spec.SMCount)
	i64(spec.CoresPerSM)
	i64(spec.WarpSize)
	i64(spec.MaxWarpsPerSM)
	i64(spec.MaxBlocksPerSM)
	i64(spec.SchedulersPerSM)
	i64(spec.IssuePerSched)
	i64(spec.SharedMemPerSM)
	i64(spec.RegistersPerSM)

	f64(spec.ALUThroughput)
	f64(spec.SFUThroughput)
	f64(spec.DPThroughput)
	f64(spec.LSUThroughput)

	i64(spec.L1PerSM)
	i64(spec.L2Size)
	f64(spec.L1LatencyCyc)
	f64(spec.L2LatencyCyc)
	f64(spec.DRAMLatencyNS)
	i64(spec.LineSize)

	i64(spec.MemBusWidthBits)
	f64(spec.MemDataRate)

	f64(spec.PeakGFLOPS)
	f64(spec.MemBandwidthGBs)
	f64(spec.TDPWatts)

	f64s(spec.CoreFreqsMHz)
	f64s(spec.MemFreqsMHz)
	var valid [9]byte
	for c := range spec.ValidPairs {
		for m, ok := range spec.ValidPairs[c] {
			if ok {
				valid[3*c+m] = 1
			}
		}
	}
	_, _ = h.Write(valid[:])

	f64(spec.CoreVoltHigh)
	f64(spec.CoreVoltLow)
	f64(spec.MemVoltHigh)
	f64(spec.MemVoltLow)
	f64(spec.VoltExponent)

	f64(spec.EnergyPerWarpInst)
	f64(spec.EnergyPerALU)
	f64(spec.EnergyPerSFU)
	f64(spec.EnergyPerDP)
	f64(spec.EnergyPerLSU)
	f64(spec.EnergyPerSharedAcc)
	f64(spec.EnergyPerL1Access)
	f64(spec.EnergyPerL2Access)
	f64(spec.EnergyPerDRAMTxn)
	f64(spec.CoreLeakWatts)
	f64(spec.MemLeakWatts)
	f64(spec.CoreIdleWatts)
	f64(spec.MemIdleWatts)

	f64(spec.TimingIrregularity)
	return h.Sum64()
}
