// Package driver is the CUDA-driver/runtime substitute: it boots a simulated
// device from a VBIOS image, exposes a kernel-launch API, meters wall power
// during runs, and optionally collects the per-architecture performance
// counters (the CUDA-profiler role).
//
// The clock-control path is deliberately faithful to the paper's method
// (Section II-B): SetClocks does not poke the simulator directly — it
// patches the boot performance level inside the device's VBIOS image,
// fixes the checksum, and reboots the device from the patched image. The
// image is decoded once, at boot: the pairs it exposes are that decoded
// table, and a reboot verifies the patched image's checksum, which any
// single bit flip breaks.
package driver

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"

	"gpuperf/internal/arch"
	"gpuperf/internal/bios"
	"gpuperf/internal/clock"
	"gpuperf/internal/counters"
	"gpuperf/internal/fastrng"
	"gpuperf/internal/fault"
	"gpuperf/internal/gpu"
	"gpuperf/internal/meter"
	"gpuperf/internal/obs"
	"gpuperf/internal/power"
)

// Device is one booted simulated GPU.
type Device struct {
	spec *arch.Spec
	img  []byte // backing VBIOS image (owned by the device)
	clk  *clock.State
	sim  *gpu.Sim
	pm   *power.Model
	set  *counters.Set
	inst *meter.Meter

	// vbios is img as decoded at boot. Its performance table is the set
	// of pairs SetClocks accepts. After boot only the driver writes img:
	// the boot-level bytes, and a fault campaign's bit flips, each
	// repaired within the call that made it.
	vbios *bios.Image

	profiling bool
	// The noise source: it is reseeded in place (Seed/SeedScoped run once
	// per measurement cell — the fastrng package exists to make that
	// allocation-free and to seed only the state the cell draws), and its
	// Rand is the long-lived adapter the meter and profiler draw through.
	// The stream is bit-identical to rand.New(rand.NewSource(seed)) for
	// every seed. Boots take it from fastrng's pool and Release returns
	// it; nil once released.
	noise    *fastrng.Stream
	baseSeed int64 // seed SeedScoped derives per-unit streams from

	// Fault injection (see faulty.go). pristine is an untouched copy of
	// the boot image, kept so a detected bit-flip can be recovered by
	// reflashing from the golden image — faults stays nil outside fault
	// campaigns and every check on it is nil-safe.
	faults   *fault.Injector
	pristine []byte

	// Launch memoization (see cache.go): the adopted timing tables, the
	// payload the latest table launch folded, the device's own map of every
	// other launch's payload, made at its first insert, and the storage the
	// simulator evaluates a miss into, made at the first miss.
	caching  bool
	adopted  []adoption
	tableHit cachedLaunch
	cache    map[launchKey]*cachedLaunch
	miss     *gpu.KernelResult

	// Instrumentation (see obs.go); nil unless Observe attached a recorder.
	obs *driverObs
	// fanout, when non-nil, receives live scope-tagged power samples from
	// every metered run (see SetPowerFanout); nil outside a daemon.
	fanout PowerFanout
}

// PowerFanout receives live scope-tagged power telemetry from metered
// runs: one Breakdown (GPU / memory domains; module is their sum) per
// meter sampling window, tagged with the reporting device's board name.
// Implementations are called from whatever goroutine runs the campaign
// cell, so they must be safe for concurrent use across devices. The
// fan-out is live-only — it never influences measurements or artifacts.
type PowerFanout interface {
	SamplePower(device string, scopes power.Breakdown)
}

// SetPowerFanout attaches (or, with nil, detaches) the live power-sample
// fan-out for this device's metered runs.
func (d *Device) SetPowerFanout(f PowerFanout) { d.fanout = f }

// IdleScopePower returns the device's modeled static power split by scope
// at its current clocks — what a fleet collector reports for an idle
// device between campaigns.
func (d *Device) IdleScopePower() power.Breakdown {
	return d.pm.IdleScopeWatts(d.clk)
}

// Open boots a device from a VBIOS image. The image's board name must match
// one of the known boards (Table I), and the image's frequency table must
// agree with the board spec — a mismatch means a corrupt or mispatched
// image and fails the boot.
func Open(img []byte) (*Device, error) {
	decoded, err := bios.Parse(img)
	if err != nil {
		return nil, fmt.Errorf("driver: boot failed: %w", err)
	}
	spec := arch.BoardByName(decoded.BoardName)
	if spec == nil {
		return nil, fmt.Errorf("driver: unknown board %q", decoded.BoardName)
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("driver: %w", err)
	}
	for _, l := range arch.Levels() {
		e := decoded.Table[l]
		if e.CoreMHz != float64(int(spec.CoreFreqMHz(l)+0.5)) || e.MemMHz != float64(int(spec.MemFreqMHz(l)+0.5)) { //gpulint:ignore unitsafety -- VBIOS tables store integral MHz; both sides are exact integers
			return nil, fmt.Errorf("driver: VBIOS clock table disagrees with %s spec at level %s", spec.Name, l)
		}
	}

	return boot(spec, append([]byte(nil), img...), decoded)
}

// boot brings a device up on spec from its own VBIOS image, decoded as
// vbios, at the image's boot pair.
func boot(spec *arch.Spec, img []byte, vbios *bios.Image) (*Device, error) {
	clk := clock.NewState(spec)
	if err := clk.SetPair(vbios.Boot); err != nil {
		return nil, fmt.Errorf("driver: boot clocks: %w", err)
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(spec.Name)) // fnv: hash.Hash.Write never errors
	seed := int64(h.Sum64())
	d := &Device{
		spec:     spec,
		img:      img,
		vbios:    vbios,
		pristine: append([]byte(nil), img...),
		clk:      clk,
		sim:      gpu.New(spec, clk),
		pm:       power.NewModel(spec),
		set:      counters.ForGeneration(spec.Generation),
		inst:     meter.New(),
		noise:    fastrng.Get(seed),
		baseSeed: seed,
		caching:  LaunchCachingEnabled(),
	}
	return d, nil
}

// OpenBoard builds a pristine VBIOS image for a named board and boots it.
func OpenBoard(name string) (*Device, error) {
	spec := arch.BoardByName(name)
	if spec == nil {
		return nil, fmt.Errorf("driver: unknown board %q", name)
	}
	return Open(bios.Build(spec))
}

// OpenSpec boots a device for an arbitrary (possibly modified) board spec —
// the hook the ablation experiments use to boot, e.g., a Kepler board with
// a flattened voltage curve or a Fermi board with disabled caches. The spec
// must still validate.
func OpenSpec(spec *arch.Spec) (*Device, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("driver: %w", err)
	}
	img := bios.Build(spec)
	decoded, err := bios.Parse(img)
	if err != nil {
		return nil, fmt.Errorf("driver: boot failed: %w", err)
	}
	return boot(spec, img, decoded)
}

// Spec returns the booted board's description.
func (d *Device) Spec() *arch.Spec { return d.spec }

// Clocks returns the current frequency pair.
func (d *Device) Clocks() clock.Pair { return d.clk.Pair() }

// PowerModel returns the device's hardware power model (for harnesses that
// need the ground truth, e.g. calibration benches).
func (d *Device) PowerModel() *power.Model { return d.pm }

// CounterSet returns the architecture's performance-counter set. It is
// shared by every device of the generation and must not be modified.
func (d *Device) CounterSet() *counters.Set { return d.set }

// Meter returns the wall-power instrument attached to the machine.
func (d *Device) Meter() *meter.Meter { return d.inst }

// SetClocks reprograms the device to a new frequency pair by patching the
// VBIOS image and rebooting, as the paper does. Invalid pairs (Table III)
// are rejected and leave the device untouched.
//
// The pair is checked against the performance table decoded at boot, the
// two boot-level bytes are written with the checksum fixed, and the
// reboot verifies the checksum. The image is valid on entry: boot parsed
// it and every corruption is repaired within the call that caused it.
//
// Under a fault campaign the reflash can fail transiently (the clock-set
// interface refuses the request) or corrupt the image with a single bit
// flip. A flip changes the byte sum by ±2^k with k < 8, never 0 mod 256,
// so the reboot's checksum always detects it; the driver then restores
// the golden image and reports a transient fault for the harness to
// retry.
func (d *Device) SetClocks(p clock.Pair) error {
	if err := d.faults.Fail(fault.ClockSetFail, d.spec.Name); err != nil {
		return fmt.Errorf("driver: %w", err)
	}
	if !d.vbios.PairValid(p) {
		return fmt.Errorf("driver: bios: %s does not expose pair %s", d.vbios.BoardName, p)
	}
	bios.WriteBootPair(d.img, p)
	flipped := false
	if d.faults.Hit(fault.BiosBitFlip) {
		bit := d.faults.Intn(fault.BiosBitFlip, len(d.img)*8)
		d.img[bit/8] ^= 1 << (bit % 8)
		flipped = true
	}
	if !bios.ChecksumOK(d.img) {
		if flipped {
			// Reflash from the golden image (re-applying the requested
			// pair so the retry starts from a consistent state).
			d.reflash(p)
			return fmt.Errorf("driver: %w",
				&fault.Error{Point: fault.BiosBitFlip, Scope: d.spec.Name, Err: bios.ErrChecksum})
		}
		return fmt.Errorf("driver: reboot failed: %w", bios.ErrChecksum)
	}
	if err := d.clk.SetPair(p); err != nil {
		return err
	}
	if o := d.obs; o != nil {
		o.clockSets.Inc()
		if o.track.Recording() {
			o.track.Instant("set clocks " + p.String())
		}
	}
	return nil
}

// reflash restores the golden image and writes p as its boot pair.
func (d *Device) reflash(p clock.Pair) {
	copy(d.img, d.pristine)
	bios.WriteBootPair(d.img, p)
}

// Seed reseeds the device's noise sources (profiler jitter, meter noise)
// and sets the base seed SeedScoped derives from. The source is reseeded
// in place — the stream is bit-identical to a freshly built
// rand.New(rand.NewSource(seed)) at zero allocations.
func (d *Device) Seed(seed int64) {
	d.baseSeed = seed
	d.noise.Seed(seed)
}

// SeedScoped reseeds the noise sources to a stream derived from the base
// seed and a scope tag (e.g. "pair|(H-L)"). Each tag yields an
// independent, reproducible stream regardless of how many draws earlier
// scopes consumed — so retries, skipped cells and reordered sweeps leave
// every other measurement's noise untouched. The base seed itself is
// unchanged; call Seed to move it.
//
// This runs once per measurement cell — the campaign stack's hottest
// non-numeric path — so it must stay allocation-free (see fastrng).
func (d *Device) SeedScoped(tag string) {
	h := fnv.New64a()
	_, _ = h.Write([]byte(tag)) // fnv: hash.Hash.Write never errors
	d.noise.Seed(d.baseSeed ^ int64(h.Sum64()))
}

// EnableProfiler turns on counter collection for subsequent launches,
// emulating runs under the CUDA Profiler.
func (d *Device) EnableProfiler() { d.profiling = true }

// DisableProfiler turns counter collection off.
func (d *Device) DisableProfiler() { d.profiling = false }

// LaunchResult reports one kernel launch.
type LaunchResult struct {
	Kernel     string
	Time       float64     // seconds
	Trace      meter.Trace // wall-power waveform during the launch
	Activities counters.Vector
	Counters   []float64 // profiler counters; nil unless profiling
}

// Analyze returns the per-resource bottleneck breakdown of a kernel at the
// current clocks (see gpu.Sim.Analyze).
func (d *Device) Analyze(k *gpu.KernelDesc) (*gpu.KernelAnalysis, error) {
	return d.sim.Analyze(k)
}

// MicroSim runs the warp-level validation simulator on a single-phase
// kernel at the current clocks (see gpu.MicroSim).
func (d *Device) MicroSim(k *gpu.KernelDesc) (*gpu.MicroResult, error) {
	return gpu.NewMicro(d.sim).RunKernel(k)
}

// launch returns the noiseless outcome of running k at the current
// clocks: folded from an adopted timing table, else from the launch map,
// else from the simulator. It is valid until the next launch and must not
// be modified; d.noise is never touched, so hits and misses draw alike.
func (d *Device) launch(k *gpu.KernelDesc) (*cachedLaunch, error) {
	o := d.obs
	if o != nil {
		o.launches.Inc()
	}
	var key launchKey
	if d.caching {
		cl := &d.tableHit
		if res := d.fromTable(k, d.clk.Pair()); res != nil {
			d.fold(cl, res)
		} else {
			key = launchKey{pair: d.clk.Pair(), kernel: k.Fingerprint()}
			cl = d.cache[key]
		}
		if cl != nil {
			if o != nil {
				o.hitsDevice.Inc()
				if o.track.Recording() {
					o.track.Instant("launch cache hit",
						obs.Arg{Key: "kernel", Value: k.Name}, obs.Arg{Key: "cache", Value: "device"})
				}
			}
			return cl, nil
		}
	}
	if d.miss == nil {
		d.miss = new(gpu.KernelResult)
	}
	if err := d.sim.RunKernelInto(k, d.miss); err != nil {
		return nil, err
	}
	cl := new(cachedLaunch)
	d.fold(cl, d.miss)
	if d.caching {
		if o != nil {
			o.misses.Inc()
		}
		if d.cache == nil {
			d.cache = make(map[launchKey]*cachedLaunch)
		}
		d.cache[key] = cl
	}
	return cl, nil
}

// Launch runs one kernel at the current clocks.
func (d *Device) Launch(k *gpu.KernelDesc) (*LaunchResult, error) {
	cl, err := d.launch(k)
	if err != nil {
		return nil, err
	}
	out := &LaunchResult{
		Kernel: k.Name,
		Time:   cl.time,
		// Copy: Trace.Append and the next table launch write the payload's
		// waveform in place, so it must never escape by reference.
		Trace:      append(meter.Trace(nil), cl.trace...),
		Activities: cl.acts,
	}
	if d.profiling {
		out.Counters = d.set.Collect(&out.Activities, d.noise.Rand)
	}
	return out, nil
}

// RunResult reports a metered, possibly repeated, workload run.
type RunResult struct {
	Workload   string
	Iterations int     // kernel-sequence repetitions
	Time       float64 // total simulated run time, seconds
	// Trace is the run's wall-power waveform in its natural form: one
	// iteration's period tiled Iterations times. Flatten() materializes
	// the explicit segment list when a consumer needs it.
	Trace       meter.Periodic
	Activities  counters.Vector // accumulated over all iterations
	Counters    []float64       // profiler counters over the whole run; nil unless profiling
	Measurement *meter.Measurement
	// Power is the run's modeled GPU-domain power averaged over one
	// iteration, split by scope (core vs memory; host and PSU excluded).
	// Deterministic — it comes from the noiseless launch payloads, not
	// from the metered samples.
	Power power.Breakdown
}

// TimePerIteration returns the execution time of one kernel-sequence
// iteration — the paper's per-benchmark execution time.
func (r *RunResult) TimePerIteration() float64 {
	return r.Time / float64(r.Iterations)
}

// EnergyPerIteration returns measured wall energy divided by iterations.
// Its reciprocal is the paper's "power efficiency".
func (r *RunResult) EnergyPerIteration() float64 {
	// The meter only observes complete 50 ms windows; scale the sampled
	// energy to the full run so iteration counts divide out cleanly.
	obs := r.Measurement.Duration
	if obs <= 0 {
		return 0
	}
	return r.Measurement.EnergyJoules * (r.Time / obs) / float64(r.Iterations)
}

// RunMetered executes the kernel sequence repeatedly until the run covers
// at least minDuration of simulated time (the paper stretches sub-500 ms
// benchmarks the same way), then meters it.
//
// hostGapSeconds is the host-side time per iteration (argument marshalling,
// cudaMemcpy, driver overhead) during which the GPU sits at static power
// and the CPU works. Real benchmarks spend a benchmark-specific fraction of
// their runtime there, and GPU performance counters cannot see it — a key
// reason the paper's counter-only execution-time model carries 33–68%
// errors.
func (d *Device) RunMetered(name string, ks []*gpu.KernelDesc, hostGapSeconds, minDuration float64) (*RunResult, error) {
	if len(ks) == 0 {
		return nil, fmt.Errorf("driver: workload %q has no kernels", name)
	}
	if hostGapSeconds < 0 {
		return nil, fmt.Errorf("driver: workload %q: negative host gap", name)
	}
	// One noiseless pass builds a single iteration's period waveform and
	// activity vector (the simulator is deterministic, so one pass
	// suffices). The run is then represented as that period tiled — the
	// stretch loop that used to materialize iters × segments is gone. The
	// result struct and the period storage come from the pool; error
	// returns may drop them (releasing is optional).
	out, period := newRunResult()
	iterTime := hostGapSeconds
	var iterActs counters.Vector
	var scopeJ power.Breakdown // GPU-domain energy of one iteration, by scope
	o := d.obs
	type kernelSlice struct {
		name string
		dur  float64
	}
	var kslices []kernelSlice
	for _, k := range ks {
		cl, err := d.launch(k)
		if err != nil {
			return nil, fmt.Errorf("driver: workload %q: %w", name, err)
		}
		iterTime += cl.time
		for _, seg := range cl.trace {
			period = period.Append(seg.Duration, seg.Watts)
		}
		iterActs.Add(&cl.acts)
		scopeJ = scopeJ.Add(cl.scopeJ)
		if o != nil {
			kslices = append(kslices, kernelSlice{name: k.Name, dur: cl.time})
		}
	}
	iters := 1
	if iterTime < minDuration {
		iters = int(minDuration/iterTime) + 1
	}
	if hostGapSeconds > 0 {
		hostWatts := d.pm.SystemWatts(d.clk, gpu.Events{}, 1) // idle GPU, busy host
		period = period.Append(hostGapSeconds, hostWatts)
		// During the gap the GPU sits at static power in both domains.
		scopeJ = scopeJ.Add(d.pm.IdleScopeWatts(d.clk).Scale(hostGapSeconds))
	}

	out.Workload = name
	out.Iterations = iters
	out.Time = iterTime * float64(iters)
	if iterTime > 0 {
		out.Power = scopeJ.Scale(1 / iterTime)
	}
	out.Trace = meter.Tile(period, iters)
	iterActs.Scale(float64(iters))
	out.Activities = iterActs
	if d.profiling {
		out.Counters = d.set.Collect(&out.Activities, d.noise.Rand)
	}
	// Lay the run out on the virtual timeline: the whole-run parent slice
	// first (so trace viewers nest the children under it), then the first
	// iteration's kernels, the host gap, and one slice standing in for the
	// remaining tiled iterations. The cursor ends exactly out.Time later,
	// on an event-free track too: each slice moves it by its own rounded
	// duration.
	var runStart int64
	if o != nil {
		runStart = o.track.Now()
		if o.track.Recording() {
			o.track.SliceAt(name, runStart, out.Time,
				obs.Arg{Key: "pair", Value: d.clk.Pair().String()},
				obs.Arg{Key: "iterations", Value: strconv.Itoa(iters)})
		}
		for _, ksl := range kslices {
			o.track.Slice(ksl.name, ksl.dur)
		}
		if hostGapSeconds > 0 {
			o.track.Slice("host gap", hostGapSeconds)
		}
		if iters > 1 {
			o.track.Slice(name+" (remaining iterations)", iterTime*float64(iters-1))
		}
	}
	if f := d.fanout; f != nil {
		// Stream one scope-tagged reading per sampling window: the run's
		// deterministic per-scope average, modulated by how far the noisy
		// wall sample deviates from the trace's true average. The closure
		// only observes the samples the meter already produced, so
		// measurements and artifacts stay byte-identical either way.
		wallAvg := period.TrueAvgWatts()
		dev, avg := d.spec.Name, out.Power
		d.inst.Fanout = func(_ int, watts float64, _ bool) {
			bd := avg
			if wallAvg > 0 {
				bd = avg.Scale(watts / wallAvg)
			}
			f.SamplePower(dev, bd)
		}
		defer func() { d.inst.Fanout = nil }()
	}
	m, err := d.inst.MeasurePeriodic(out.Trace, d.noise.Rand)
	if err != nil {
		return nil, fmt.Errorf("driver: workload %q: %w", name, err)
	}
	out.Measurement = m
	if o != nil && o.track.Recording() {
		periodUS := int64(math.Round(d.inst.SamplePeriod * 1e6))
		for i, w := range m.Samples {
			if m.Valid != nil && !m.Valid[i] {
				o.track.SampleAt("wall power (W)", runStart+int64(i)*periodUS, w,
					obs.NumArg{Key: "interpolated", Value: 1})
			} else {
				o.track.SampleAt("wall power (W)", runStart+int64(i)*periodUS, w)
			}
		}
		o.track.Instant("measured",
			obs.Arg{Key: "avg_watts", Value: strconv.FormatFloat(m.AvgWatts, 'f', 2, 64)},
			obs.Arg{Key: "confidence", Value: strconv.FormatFloat(m.Confidence(), 'f', 3, 64)})
	}
	return out, nil
}
