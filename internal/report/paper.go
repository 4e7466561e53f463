package report

import (
	"fmt"
	"strings"

	"gpuperf/internal/arch"
	"gpuperf/internal/characterize"
	"gpuperf/internal/core"
	"gpuperf/internal/validity"
)

// Table1 renders Table I: specifications of the NVIDIA GPUs.
func Table1(boards []*arch.Spec) *Table {
	t := NewTable("TABLE I — Specifications of the NVIDIA GPUs",
		"GPU", "Architecture", "Cores", "Peak GFLOPS", "BW (GB/s)", "TDP (W)",
		"Core MHz (L/M/H)", "Mem MHz (L/M/H)")
	for _, s := range boards {
		t.AddRowf(s.Name, s.Generation.String(), s.TotalCores(), s.PeakGFLOPS,
			s.MemBandwidthGBs, s.TDPWatts,
			fmt.Sprintf("%.0f/%.0f/%.0f", s.CoreFreqsMHz[0], s.CoreFreqsMHz[1], s.CoreFreqsMHz[2]),
			fmt.Sprintf("%.0f/%.0f/%.0f", s.MemFreqsMHz[0], s.MemFreqsMHz[1], s.MemFreqsMHz[2]))
	}
	return t
}

// Table3 renders Table III: configurable frequency combinations.
func Table3(boards []*arch.Spec) *Table {
	headers := []string{"Pair"}
	for _, s := range boards {
		headers = append(headers, s.Name)
	}
	t := NewTable("TABLE III — Configurable frequency combinations", headers...)
	for ci := 2; ci >= 0; ci-- {
		for mi := 2; mi >= 0; mi-- {
			core, mem := arch.FreqLevel(ci), arch.FreqLevel(mi)
			row := []string{fmt.Sprintf("Core-%s, Mem-%s", core, mem)}
			for _, s := range boards {
				if s.PairValid(core, mem) {
					row = append(row, "yes")
				} else {
					row = append(row, "-")
				}
			}
			t.AddRow(row...)
		}
	}
	return t
}

// Table4 renders Table IV: the best frequency pairs for power efficiency.
// results maps board name → sweep results in benchmark order. tr, when
// non-nil, is the campaign's triage engine: a best-pair claim prints only
// when the "table4" bench verdict is VALID — a cell the triage judged an
// INFRA_FLAKE or MODEL_FAILURE renders "n/a (unstable)" even if a
// plausible-looking best pair survived. A nil tr keeps the classic
// single-run behavior (unstable means the sweep itself was quarantined).
func Table4(boards []*arch.Spec, results map[string][]*characterize.BenchResult, tr *validity.Triage) *Table {
	headers := []string{"Benchmark"}
	for _, s := range boards {
		headers = append(headers, s.Name)
	}
	t := NewTable("TABLE IV — Best frequency pairs for power efficiency", headers...)
	if len(boards) == 0 {
		return t
	}
	ref := results[boards[0].Name]
	for i, r := range ref {
		row := []string{r.Benchmark}
		for _, s := range boards {
			rs := results[s.Name]
			if i < len(rs) {
				// A cell whose sweep was quarantined by the fault harness
				// has no best pair — report it as unstable rather than
				// inventing one. The triage verdict extends the same rule
				// to cells that measured but failed the validity gate.
				best := rs[i].Best()
				if best != nil && tr != nil {
					if v, ok := tr.BenchVerdict("table4", s.Name, rs[i].Benchmark); ok && v.Class != validity.Valid {
						best = nil
					}
				}
				if best != nil {
					row = append(row, best.Pair.String())
				} else {
					row = append(row, "n/a (unstable)")
				}
			} else {
				row = append(row, "?")
			}
		}
		t.AddRow(row...)
	}
	return t
}

// Fig4 renders the power-efficiency improvement of the best configuration
// (Fig. 4) as per-benchmark bars plus the per-board average.
func Fig4(boards []*arch.Spec, results map[string][]*characterize.BenchResult) string {
	var b strings.Builder
	b.WriteString("Fig. 4 — Power-efficiency improvement with the best configuration\n")
	for _, s := range boards {
		rs := results[s.Name]
		b.WriteString(fmt.Sprintf("\n%s (mean %.1f%%)\n", s.Name, characterize.MeanImprovementPct(rs)))
		for _, r := range rs {
			if r.Best() == nil || r.Default() == nil {
				b.WriteString(fmt.Sprintf("  %-22s %6s  (unstable — no measurement)\n", r.Benchmark, "n/a"))
				continue
			}
			imp := r.ImprovementPct()
			b.WriteString(fmt.Sprintf("  %-22s %6.1f%% %s\n", r.Benchmark, imp, Bar(imp/80, 40)))
		}
	}
	return b.String()
}

// FigCurves renders a Figs. 1–3 panel: normalized performance and power
// efficiency against the core clock, one line per memory level.
func FigCurves(title string, spec *arch.Spec, curves []characterize.Curve) *Table {
	t := NewTable(title,
		"Mem level", "Mem MHz", "Core MHz", "Perf (vs H-H)", "Efficiency (vs H-H)")
	for _, c := range curves {
		for _, p := range c.Points {
			t.AddRowf("Mem-"+c.MemLevel.String(), c.MemMHz, p.CoreMHz, p.Perf, p.Efficiency)
		}
	}
	return t
}

// Table56 renders Tables V and VI: adjusted R² of the power and performance
// models per board.
func Table56(r2 map[string][2]float64, boards []*arch.Spec) *Table {
	t := NewTable("TABLES V & VI — Adjusted R² of the unified models",
		"GPU", "Power model R̄²", "Performance model R̄²")
	for _, s := range boards {
		v := r2[s.Name]
		t.AddRowf(s.Name, fmt.Sprintf("%.2f", v[0]), fmt.Sprintf("%.2f", v[1]))
	}
	return t
}

// Table78 renders Tables VII and VIII: average prediction errors.
func Table78(evals map[string][2]*core.Eval, boards []*arch.Spec) *Table {
	t := NewTable("TABLES VII & VIII — Average prediction error of the unified models",
		"GPU", "Power err [%]", "Power err [W]", "Time err [%]")
	for _, s := range boards {
		v := evals[s.Name]
		t.AddRowf(s.Name,
			fmt.Sprintf("%.1f", v[0].MeanAbsPct),
			fmt.Sprintf("%.1f", v[0].MeanAbsRaw),
			fmt.Sprintf("%.1f", v[1].MeanAbsPct))
	}
	return t
}

// Fig56 renders the per-benchmark error distribution of one model (Figs. 5
// and 6): benchmarks sorted by error, as in the paper's x-axis.
func Fig56(title string, errs []core.BenchmarkError) *Table {
	t := NewTable(title, "Benchmark", "Mean |error| %", "")
	maxErr := 1.0
	for _, e := range errs {
		if e.MeanPct > maxErr {
			maxErr = e.MeanPct
		}
	}
	for _, e := range errs {
		t.AddRow(e.Benchmark, fmt.Sprintf("%.1f", e.MeanPct), Bar(e.MeanPct/maxErr, 30))
	}
	return t
}

// Fig78 renders the explanatory-variable sweep (Figs. 7 and 8).
func Fig78(title string, points []core.SweepPoint) *Table {
	t := NewTable(title, "Variables", "Adjusted R²", "Mean |error| %")
	for _, p := range points {
		t.AddRowf(p.Vars, fmt.Sprintf("%.3f", p.AdjR2), fmt.Sprintf("%.1f", p.MeanAbsPct))
	}
	return t
}

// Fig910 renders the per-pair vs unified comparison (Figs. 9 and 10) as
// box-and-whisker lines over the percentage-error axis.
func Fig910(title string, cols []core.PairEval) string {
	var hi float64
	for _, c := range cols {
		if c.Box.Max > hi {
			hi = c.Box.Max
		}
	}
	if hi == 0 {
		hi = 1
	}
	var b strings.Builder
	b.WriteString(title + "\n")
	b.WriteString(fmt.Sprintf("%-9s %-50s %s\n", "model", fmt.Sprintf("|error|%% in [0, %.0f]", hi), "median"))
	for _, c := range cols {
		box := c.Box
		b.WriteString(fmt.Sprintf("%-9s %s %6.1f%%\n", c.Label,
			BoxLine(box.Min, box.Q1, box.Median, box.Q3, box.Max, 0, hi, 50), box.Median))
	}
	return b.String()
}

// Fig11 renders the per-variable influence breakdown of one model.
func Fig11(title string, infl []core.Influence) *Table {
	t := NewTable(title, "Variable", "Influence share", "")
	for _, f := range infl {
		t.AddRow(f.Variable, fmt.Sprintf("%.1f%%", f.Share*100), Bar(f.Share, 30))
	}
	return t
}
