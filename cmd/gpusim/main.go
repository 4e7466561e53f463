// Command gpusim runs one Table II benchmark on one simulated board at one
// frequency pair and prints the measurements — the smallest end-to-end
// slice of the paper's apparatus.
//
// Usage:
//
//	gpusim -board "GTX 680" -bench backprop -pair H-L [-scale 2] [-profile]
//
// The device comes from the shared campaign session, so the campaign flag
// block (-seed, -faults, -max-retries, …) behaves exactly as in the sweep
// commands; an interrupt (Ctrl-C) aborts the metered run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"gpuperf"
	"gpuperf/internal/characterize"
	"gpuperf/internal/cliflags"
	"gpuperf/internal/gpu"
	"gpuperf/internal/kernelspec"
	"gpuperf/internal/session"
	"gpuperf/internal/trace"
	"gpuperf/internal/workloads"
)

func main() {
	board := flag.String("board", "GTX 680", "board name (Table I)")
	bench := flag.String("bench", "backprop", "benchmark name (Table II)")
	kernelsPath := flag.String("kernels", "", "run kernels from a kernelspec file instead of -bench")
	pairArg := flag.String("pair", "H-H", "frequency pair, e.g. H-L")
	scale := flag.Float64("scale", 1, "input-size scale")
	profile := flag.Bool("profile", false, "collect and print performance counters")
	analyze := flag.Bool("analyze", false, "print the per-resource bottleneck breakdown")
	micro := flag.Bool("microsim", false, "validate against the warp-level microsimulator (single-phase kernels)")
	traceOut := flag.String("trace", "", "write a Chrome/Perfetto trace JSON of the run to this path")
	list := flag.Bool("list", false, "list boards and benchmarks, then exit")
	jsonOut := flag.Bool("json", false, "emit the run summary as JSON instead of text")
	camp := cliflags.Register(flag.CommandLine)
	flag.Parse()

	stopProf, err := camp.StartProfiling()
	if err != nil {
		cliflags.Fatal("gpusim", err)
	}
	defer stopProf()

	if *list {
		fmt.Println("boards:")
		for _, b := range gpuperf.Boards() {
			fmt.Printf("  %s\n", b)
		}
		fmt.Println("benchmarks:")
		for _, b := range gpuperf.Benchmarks() {
			fmt.Printf("  %s\n", b)
		}
		return
	}

	camp.NoFleet("gpusim")
	cfg, err := camp.Config(*board)
	if err != nil {
		cliflags.Usage("gpusim", err)
	}
	s, err := session.Open(cfg)
	if err != nil {
		cliflags.Fatal("gpusim", err)
	}
	defer s.Close()
	ctx, stop := cliflags.SignalContext()
	defer stop()

	dev, err := s.Device(*board)
	if err != nil {
		cliflags.Fatal("gpusim", err)
	}
	pair, err := gpuperf.ParsePair(*pairArg)
	if err != nil {
		cliflags.Fatal("gpusim", err)
	}
	if err := dev.SetClocks(pair); err != nil {
		cliflags.Fatal("gpusim", err)
	}

	var kernels []*gpu.KernelDesc
	var hostGap float64
	name := *bench
	if *kernelsPath != "" {
		f, err := os.Open(*kernelsPath)
		if err != nil {
			cliflags.Fatal("gpusim", err)
		}
		kernels, err = kernelspec.Parse(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			cliflags.Fatal("gpusim", err)
		}
		name = *kernelsPath
	} else {
		b := workloads.ByName(*bench)
		if b == nil {
			cliflags.Fatal("gpusim", fmt.Errorf("unknown benchmark %q (use -list)", *bench))
		}
		kernels = b.Kernels(*scale)
		hostGap = b.HostGap(*scale)
	}
	if *profile {
		dev.EnableProfiler()
	}
	rr, err := dev.RunMeteredCtx(ctx, name, kernels, hostGap, characterize.MinRunSeconds)
	if err != nil {
		cliflags.Fatal("gpusim", err)
	}

	spec := dev.Spec()
	if *jsonOut {
		out := map[string]interface{}{
			"board":             spec.Name,
			"architecture":      spec.Generation.String(),
			"pair":              pair.String(),
			"core_mhz":          spec.CoreFreqMHz(pair.Core),
			"mem_mhz":           spec.MemFreqMHz(pair.Mem),
			"workload":          name,
			"scale":             *scale,
			"iterations":        rr.Iterations,
			"time_per_iter_s":   rr.TimePerIteration(),
			"avg_watts":         rr.Measurement.AvgWatts,
			"energy_per_iter_j": rr.EnergyPerIteration(),
			"meter_samples":     len(rr.Measurement.Samples),
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			cliflags.Fatal("gpusim", err)
		}
		return
	}
	fmt.Printf("board        %s (%s)\n", spec.Name, spec.Generation)
	fmt.Printf("clocks       %s  core %.0f MHz  mem %.0f MHz\n",
		pair, spec.CoreFreqMHz(pair.Core), spec.MemFreqMHz(pair.Mem))
	fmt.Printf("workload     %s (scale %g)\n", name, *scale)
	fmt.Printf("iterations   %d (run stretched to ≥ %.0f ms)\n", rr.Iterations, characterize.MinRunSeconds*1e3)
	fmt.Printf("time/iter    %.3f ms\n", rr.TimePerIteration()*1e3)
	fmt.Printf("wall power   %.1f W (avg over %d meter samples)\n",
		rr.Measurement.AvgWatts, len(rr.Measurement.Samples))
	fmt.Printf("energy/iter  %.2f J\n", rr.EnergyPerIteration())

	if *analyze {
		fmt.Println("\nbottleneck analysis:")
		for _, k := range kernels {
			an, err := dev.Analyze(k)
			if err != nil {
				cliflags.Fatal("gpusim", err)
			}
			fmt.Print(an.String())
		}
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			cliflags.Fatal("gpusim", err)
		}
		if err := trace.FromRun(name, rr.Trace.Flatten()).WriteJSON(f); err != nil {
			_ = f.Close() // already failing; surface the write error
			cliflags.Fatal("gpusim", err)
		}
		if err := f.Close(); err != nil {
			cliflags.Fatal("gpusim", err)
		}
		fmt.Printf("trace        wrote %s (open in ui.perfetto.dev)\n", *traceOut)
	}

	if *micro {
		fmt.Println("\nmicrosim validation (interval vs warp-level):")
		for _, k := range kernels {
			lr, err := dev.Launch(k)
			if err != nil {
				cliflags.Fatal("gpusim", err)
			}
			mr, err := dev.MicroSim(k)
			if err != nil {
				fmt.Printf("  %-24s %v\n", k.Name, err)
				continue
			}
			fmt.Printf("  %-24s interval %8.3f ms, micro %8.3f ms (x%.2f), IPC %.2f\n",
				k.Name, lr.Time*1e3, mr.Time*1e3, mr.Time/lr.Time, mr.IPC)
		}
	}

	if *profile {
		fmt.Printf("\ncounters (%d, whole run):\n", len(rr.Counters))
		type kv struct {
			name string
			v    float64
		}
		var rows []kv
		for i, d := range dev.CounterSet().Defs {
			rows = append(rows, kv{d.Name, rr.Counters[i]})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].v > rows[j].v })
		for _, r := range rows {
			fmt.Printf("  %-44s %.4g\n", r.name, r.v)
		}
	}
	if err := camp.WriteArtifacts(cfg.Obs); err != nil {
		cliflags.Fatal("gpusim", err)
	}
}
