// Command characterize regenerates the Section III artifacts: Tables I,
// III and IV and Figs. 1–4.
//
// Usage:
//
//	characterize -table 1|3|4        print one table
//	characterize -fig 1|2|3|4        print one figure
//	characterize -all                print everything (default)
//	characterize -csv                emit CSV instead of aligned text
//	characterize -board "GTX 680"    restrict to one board
//
// An interrupt (Ctrl-C) cancels the sweeps at the next cell boundary;
// with -checkpoint the journal stays resumable.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gpuperf/internal/arch"
	"gpuperf/internal/characterize"
	"gpuperf/internal/cliflags"
	"gpuperf/internal/driver"
	"gpuperf/internal/report"
	"gpuperf/internal/session"
	"gpuperf/internal/validity"
	"gpuperf/internal/workloads"
)

func main() {
	table := flag.Int("table", 0, "print Table 1, 3 or 4")
	suite := flag.Bool("suite", false, "print the Table II workload characterization summary")
	fig := flag.Int("fig", 0, "print Fig. 1, 2, 3 or 4")
	all := flag.Bool("all", false, "print every Section III artifact")
	csv := flag.Bool("csv", false, "emit CSV where available")
	md := flag.Bool("md", false, "emit Markdown tables instead of aligned text")
	board := flag.String("board", "", "restrict to one board")
	bench := flag.String("bench", "",
		"comma-separated benchmark restriction for fleet campaigns (default: the Table IV set)")
	camp := cliflags.Register(flag.CommandLine)
	flag.Parse()

	stopProf, err := camp.StartProfiling()
	if err != nil {
		cliflags.Fatal("characterize", err)
	}
	defer stopProf()

	var restrict []string
	if *board != "" {
		restrict = []string{*board}
	}
	cfg, err := camp.Config(restrict...)
	if err != nil {
		cliflags.Usage("characterize", err)
	}
	s, err := session.Open(cfg)
	if err != nil {
		cliflags.Fatal("characterize", err)
	}
	defer s.Close()
	ctx, stop := cliflags.SignalContext()
	defer stop()

	defer camp.StartProgress(ctx, cfg.Obs, os.Stderr,
		"characterize_cells_total", "fault_retries_total",
		"characterize_cells_quarantined_total", "driver_launch_cache_hits_total")()

	if cfg.FleetSize >= 1 {
		// Fleet campaigns replace the per-board artifacts with the
		// population report; the other selection flags don't apply.
		benches := workloads.Table4()
		if *bench != "" {
			benches = nil
			for _, name := range strings.Split(*bench, ",") {
				b := workloads.ByName(strings.TrimSpace(name))
				if b == nil {
					cliflags.Usage("characterize", fmt.Errorf("unknown benchmark %q", name))
				}
				benches = append(benches, b)
			}
		}
		rep, err := s.Fleet(ctx, benches)
		if err != nil {
			cliflags.Fatal("characterize", err)
		}
		fmt.Print(report.FleetSummary(rep))
		if err := camp.WriteArtifacts(cfg.Obs); err != nil {
			cliflags.Fatal("characterize", err)
		}
		return
	}
	if *bench != "" {
		cliflags.Usage("characterize", fmt.Errorf("-bench requires -fleet-size ≥ 1"))
	}

	if *table == 0 && *fig == 0 && !*suite {
		*all = true
	}
	boards := s.Boards()
	emit := func(t *report.Table) {
		switch {
		case *csv:
			fmt.Print(t.CSV())
		case *md:
			fmt.Println(t.Markdown())
		default:
			fmt.Println(t.String())
		}
	}

	if *suite {
		emit(suiteSummary())
	}
	if *all || *table == 1 {
		emit(report.Table1(boards))
	}
	if *all || *table == 3 {
		emit(report.Table3(boards))
	}

	figBench := map[int]string{1: "backprop", 2: "streamcluster", 3: "gaussian"}
	for n := 1; n <= 3; n++ {
		if !*all && *fig != n {
			continue
		}
		name := figBench[n]
		results, err := s.Sweep(ctx, []*workloads.Benchmark{workloads.ByName(name)})
		if err != nil {
			cliflags.Fatal("characterize", err)
		}
		for _, spec := range boards {
			curves := characterize.Curves(results[spec.Name][0], spec)
			title := fmt.Sprintf("Fig. %d — Performance and power efficiency of %s on %s", n, name, spec.Name)
			emit(report.FigCurves(title, spec, curves))
			if !*csv && !*md {
				// Paper-style panels: one chart per metric.
				perf := report.NewChart(title+" — performance", "core MHz", "perf vs (H-H)")
				eff := report.NewChart(title+" — power efficiency", "core MHz", "1/energy vs (H-H)")
				for _, c := range curves {
					var xs, perfY, effY []float64
					for _, p := range c.Points {
						xs = append(xs, p.CoreMHz)
						perfY = append(perfY, p.Perf)
						effY = append(effY, p.Efficiency)
					}
					label := "Mem-" + c.MemLevel.String()
					if err := perf.AddSeries(label, xs, perfY); err != nil {
						cliflags.Fatal("characterize", err)
					}
					if err := eff.AddSeries(label, xs, effY); err != nil {
						cliflags.Fatal("characterize", err)
					}
				}
				fmt.Println(perf.String())
				fmt.Println(eff.String())
			}
		}
	}

	if *all || *table == 4 || *fig == 4 {
		// Repeat is Sweep run Repetitions times; repetition 0 (rendered
		// below) is bit-identical to a single sweep, and the triage engine
		// judges every cell across the cohort when triage is engaged.
		repsRes, err := s.Repeat(ctx, workloads.Table4())
		if err != nil {
			cliflags.Fatal("characterize", err)
		}
		results := repsRes[0]
		var tr *validity.Triage
		if s.TriageOn() {
			tr = s.NewTriage()
			if err := characterize.ObserveTriageReps(tr, "table4", repsRes); err != nil {
				cliflags.Fatal("characterize", err)
			}
		}
		if *all || *table == 4 {
			emit(report.Table4(boards, results, tr))
		}
		if *all || *fig == 4 {
			fmt.Println(report.Fig4(boards, results))
		}
		for _, d := range characterize.Degradations(results) {
			fmt.Fprintln(os.Stderr, "degraded:", d.Line)
		}
		if tr != nil {
			trep := tr.Finalize()
			fmt.Fprintln(os.Stderr, trep.Summary())
			if cfg.TriageOut != "" {
				if err := trep.WriteFile(cfg.TriageOut); err != nil {
					cliflags.Fatal("characterize", err)
				}
			}
		}
	}
	if err := camp.WriteArtifacts(cfg.Obs); err != nil {
		cliflags.Fatal("characterize", err)
	}
}

// suiteSummary characterizes every Table II benchmark on the GTX 480 at
// the default clocks: binding resource, GPU runtime, host fraction and
// whether it appears in the Table IV / modeling sets.
func suiteSummary() *report.Table {
	t := report.NewTable("TABLE II — workload characterization (GTX 480, (H-H))",
		"Benchmark", "Suite", "Bound by", "GPU ms/iter", "Host %", "Table IV", "Modeled")
	spec := arch.GTX480()
	dev, err := driver.OpenSpec(spec)
	if err != nil {
		cliflags.Fatal("characterize", err)
	}
	for _, b := range workloads.All() {
		var gpuTime float64
		bound := ""
		var boundDur float64
		for _, k := range b.Kernels(1) {
			an, err := dev.Analyze(k)
			if err != nil {
				cliflags.Fatal("characterize", err)
			}
			gpuTime += an.Time
			for _, p := range an.Phases {
				if p.Duration > boundDur {
					boundDur = p.Duration
					bound = p.Bottleneck
				}
			}
		}
		host := b.HostGap(1)
		hostPct := host / (host + gpuTime) * 100
		t.AddRowf(b.Name, b.Suite.String(), bound,
			fmt.Sprintf("%.1f", gpuTime*1e3),
			fmt.Sprintf("%.0f", hostPct),
			yesNo(b.InTable4), yesNo(b.Modeled))
	}
	return t
}

func yesNo(v bool) string {
	if v {
		return "yes"
	}
	return "-"
}
