package fleet

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"gpuperf/internal/arch"
	"gpuperf/internal/fastrng"
)

// Device is one generated fleet member: a jittered copy of a base board
// spec plus its meter calibration gain. Devices are computed on demand —
// a Device is a pure function of (fleet seed, index), so the orchestrator
// never materializes the fleet.
type Device struct {
	Index     int
	Name      string // "<base board>#<index>", e.g. "GTX 680#0042"
	Spec      *arch.Spec
	MeterGain float64
}

// Fleet deterministically generates a population of jittered devices
// over a set of base boards. Safe for concurrent use (it is immutable).
type Fleet struct {
	seed   int64
	bases  []*arch.Spec
	size   int
	jitter JitterProfile
}

// New builds a fleet generator of `size` devices over the named base
// boards (empty: all four paper boards), round-robin across bases.
func New(seed int64, baseBoards []string, size int, jitter JitterProfile) (*Fleet, error) {
	if size < 1 {
		return nil, fmt.Errorf("fleet: size %d < 1", size)
	}
	if err := jitter.Validate(); err != nil {
		return nil, err
	}
	var bases []*arch.Spec
	if len(baseBoards) == 0 {
		bases = arch.AllBoards()
	} else {
		for _, name := range baseBoards {
			spec := arch.BoardByName(name)
			if spec == nil {
				return nil, fmt.Errorf("fleet: unknown base board %q", name)
			}
			bases = append(bases, spec)
		}
	}
	return &Fleet{seed: seed, bases: bases, size: size, jitter: jitter}, nil
}

// Size reports the fleet's device count.
func (f *Fleet) Size() int { return f.size }

// BaseNames lists the base board names, in round-robin order.
func (f *Fleet) BaseNames() []string {
	out := make([]string, len(f.bases))
	for i, s := range f.bases {
		out[i] = s.Name
	}
	return out
}

// fnvHash is the repo-wide FNV-1a tag hash (sweepSeed, SeedScoped).
func fnvHash(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s)) // fnv: hash.Hash.Write never errors
	return h.Sum64()
}

// DeviceName returns device i's name without generating its spec.
func (f *Fleet) DeviceName(i int) string {
	return fmt.Sprintf("%s#%04d", f.bases[i%len(f.bases)].Name, i)
}

// DeviceIndex parses a device name back to its index, the inverse of
// DeviceName. ok is false for names without the #index suffix.
func DeviceIndex(name string) (int, bool) {
	cut := strings.LastIndexByte(name, '#')
	if cut < 0 {
		return 0, false
	}
	idx, err := strconv.Atoi(name[cut+1:])
	if err != nil || idx < 0 {
		return 0, false
	}
	return idx, true
}

// Device generates fleet member i: the base board for the slot (round-
// robin) with one multiplicative jitter draw per parameter domain, from
// a generator seeded by seed ⊕ FNV-1a("fleet|device|i") — the same
// split-by-tag scheme the sweep engines use, so device streams are
// mutually independent and independent of measurement noise. The draw
// order (corevolt, memvolt, vexp, leak, meter) is part of the
// determinism contract: a Device is byte-identical across shard layouts
// and resumes because nothing but (seed, index) feeds it. The generator
// is a pooled stream, reseeded for the device and returned after the
// five draws.
//
// Voltage spreads scale both curve endpoints by one factor, preserving
// the Validate ordering invariants; frequencies are never jittered (the
// derived-bandwidth consistency check pins them to the bus parameters).
func (f *Fleet) Device(i int) Device {
	if i < 0 || i >= f.size {
		panic(fmt.Sprintf("fleet: device index %d outside [0, %d)", i, f.size))
	}
	base := f.bases[i%len(f.bases)]
	spec := *base // Spec is all value fields; a copy is deep
	st := fastrng.Get(f.seed ^ int64(fnvHash("fleet|device|"+strconv.Itoa(i))))
	sym := func() float64 { return 2*st.Rand.Float64() - 1 }

	cv := 1 + f.jitter.CoreVolt*sym()
	mv := 1 + f.jitter.MemVolt*sym()
	ve := 1 + f.jitter.VExp*sym()
	lk := 1 + f.jitter.Leak*sym()
	gain := 1 + f.jitter.Meter*sym()
	fastrng.Put(st)

	spec.CoreVoltHigh *= cv
	spec.CoreVoltLow *= cv
	spec.MemVoltHigh *= mv
	spec.MemVoltLow *= mv
	exp := spec.VoltExponent
	if exp == 0 {
		exp = 1
	}
	if exp *= ve; exp < 1 {
		exp = 1
	}
	spec.VoltExponent = exp
	spec.CoreLeakWatts *= lk
	spec.MemLeakWatts *= lk
	spec.CoreIdleWatts *= lk
	spec.MemIdleWatts *= lk
	spec.Name = f.DeviceName(i)
	return Device{Index: i, Name: spec.Name, Spec: &spec, MeterGain: gain}
}
