package driver

import (
	"fmt"
	"sort"

	"gpuperf/internal/counters"
	"gpuperf/internal/gpu"
	"gpuperf/internal/meter"
	"gpuperf/internal/power"
)

// Concurrent kernel execution (CUDA streams). Fermi introduced concurrent
// kernels — the CUDA SDK's concurrentKernels sample in Table II showcases
// it — and the simulator models the common spatial-sharing case: the SMs
// are partitioned among the resident kernels, each kernel runs on its
// share, and the wall-power trace is the overlay of their activity over a
// single static/host baseline.

// ConcurrentLaunch reports one kernel of a concurrent batch.
type ConcurrentLaunch struct {
	Kernel string
	SMs    int     // SMs assigned to this kernel
	Time   float64 // completion time of this kernel, seconds
}

// ConcurrentResult reports a LaunchConcurrent batch.
type ConcurrentResult struct {
	Launches   []ConcurrentLaunch
	Time       float64 // batch completion (max over kernels)
	Trace      meter.Trace
	Activities counters.Vector
}

// LaunchConcurrent runs the kernels simultaneously, partitioning the SMs
// evenly (Tesla-generation devices reject it: concurrent kernels arrived
// with Fermi). The power trace overlays the kernels' activity; counters
// accumulate across all of them, as the real profiler reports.
func (d *Device) LaunchConcurrent(ks []*gpu.KernelDesc) (*ConcurrentResult, error) {
	if len(ks) == 0 {
		return nil, fmt.Errorf("driver: empty concurrent batch")
	}
	if d.spec.L1PerSM == 0 {
		return nil, fmt.Errorf("driver: %s (%s) does not support concurrent kernels",
			d.spec.Name, d.spec.Generation)
	}
	if len(ks) > d.spec.SMCount {
		return nil, fmt.Errorf("driver: %d kernels exceed %d SMs", len(ks), d.spec.SMCount)
	}
	if len(ks) == 1 {
		lr, err := d.Launch(ks[0])
		if err != nil {
			return nil, err
		}
		return &ConcurrentResult{
			Launches:   []ConcurrentLaunch{{Kernel: lr.Kernel, SMs: d.spec.SMCount, Time: lr.Time}},
			Time:       lr.Time,
			Trace:      lr.Trace,
			Activities: lr.Activities,
		}, nil
	}

	// Partition the SMs evenly; remainders go to the first kernels.
	share := d.spec.SMCount / len(ks)
	extra := d.spec.SMCount % len(ks)

	type piece struct {
		start, end float64
		watts      float64 // GPU dynamic contribution of this phase
	}
	var pieces []piece
	var cuts []float64
	out := &ConcurrentResult{}
	var acts counters.Vector

	for i, k := range ks {
		sms := share
		if i < extra {
			sms++
		}
		sub := *d.spec
		sub.SMCount = sms
		sim := gpu.New(&sub, d.clk)
		res, err := sim.RunKernel(k)
		if err != nil {
			return nil, fmt.Errorf("driver: concurrent kernel %q: %w", k.Name, err)
		}
		out.Launches = append(out.Launches, ConcurrentLaunch{Kernel: k.Name, SMs: sms, Time: res.Time})
		if res.Time > out.Time {
			out.Time = res.Time
		}
		acts.Add(&res.Activities)

		at := 0.0
		for _, ph := range res.Phases {
			ev := ph.Events
			ev.Scale(ph.EnergyScale)
			pieces = append(pieces, piece{
				start: at,
				end:   at + ph.Duration,
				watts: d.pm.GPUDynamicWatts(d.clk, ev, ph.Duration),
			})
			cuts = append(cuts, at, at+ph.Duration)
			at += ph.Duration
		}
	}
	out.Activities = acts

	// Overlay: between consecutive cuts the active set is constant.
	sort.Float64s(cuts)
	baseline := d.pm.SystemIdleWatts + d.pm.CPUActiveWatts + d.pm.GPUStaticWatts(d.clk)
	prev := 0.0
	for _, c := range cuts {
		if c <= prev {
			continue
		}
		mid := (prev + c) / 2
		dc := baseline
		for _, p := range pieces {
			if p.start <= mid && mid < p.end {
				dc += p.watts
			}
		}
		out.Trace = out.Trace.Append(c-prev, power.WallFromDC(dc))
		prev = c
	}
	return out, nil
}
