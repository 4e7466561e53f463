// Command model regenerates the Section IV artifacts: Tables V–VIII and
// Figs. 5–11 — the unified statistical power and performance models.
//
// Usage:
//
//	model                      print Tables V–VIII (default)
//	model -fig 5|6|7|8|9|10|11 print one figure
//	model -board "GTX 680"     restrict figures to one board
//	model -vars 15             override the 10-variable cap
//
// An interrupt (Ctrl-C) cancels the collection at the next measurement
// boundary.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"gpuperf/internal/cliflags"
	"gpuperf/internal/core"
	"gpuperf/internal/regress"
	"gpuperf/internal/report"
	"gpuperf/internal/session"
	"gpuperf/internal/validity"
	"gpuperf/internal/workloads"
)

func main() {
	fig := flag.Int("fig", 0, "print Fig. 5–11 instead of the tables")
	board := flag.String("board", "", "restrict figures to one board (default: all)")
	vars := flag.Int("vars", core.MaxVariables, "explanatory-variable cap")
	saveDir := flag.String("save", "", "directory to write trained models and datasets as JSON")
	diagnose := flag.Bool("diagnose", false, "print per-variable VIF and standardized coefficients")
	camp := cliflags.Register(flag.CommandLine)
	flag.Parse()

	stopProf, err := camp.StartProfiling()
	if err != nil {
		cliflags.Fatal("model", err)
	}
	defer stopProf()

	var restrict []string
	if *board != "" {
		restrict = []string{*board}
	}
	camp.NoFleet("model")
	cfg, err := camp.Config(restrict...)
	if err != nil {
		cliflags.Usage("model", err)
	}
	cfg.MaxVars = *vars
	s, err := session.Open(cfg)
	if err != nil {
		cliflags.Fatal("model", err)
	}
	defer s.Close()
	if cfg.Obs != nil {
		defer regress.Observe(cfg.Obs.Metrics())()
	}
	ctx, stop := cliflags.SignalContext()
	defer stop()

	defer camp.StartProgress(ctx, cfg.Obs, os.Stderr,
		"core_rows_total", "fault_retries_total", "core_benches_dropped_total",
		"driver_launch_cache_hits_total")()

	boards := s.Boards()
	var tr *validity.Triage
	if s.TriageOn() {
		tr = s.NewTriage()
	}
	benchNames := make([]string, 0, len(workloads.ModelingSet()))
	for _, b := range workloads.ModelingSet() {
		benchNames = append(benchNames, b.Name)
	}
	datasets := map[string]*core.Dataset{}
	for _, spec := range boards {
		ds, err := s.Collect(ctx, spec.Name, workloads.ModelingSet())
		if err != nil {
			cliflags.Fatal("model", err)
		}
		dropped := map[string]string{}
		for _, d := range ds.Dropped {
			fmt.Fprintf(os.Stderr, "dropped: %s / %s (%s)\n", spec.Name, d.Benchmark, d.Point)
			dropped[d.Benchmark] = fmt.Sprintf("retry budget exhausted at %s; dropped from the modeling set", d.Point)
		}
		if tr != nil {
			if err := validity.ObserveModeling(tr, spec.Name, benchNames, dropped); err != nil {
				cliflags.Fatal("model", err)
			}
		}
		if len(ds.Rows) == 0 {
			cliflags.Fatal("model", fmt.Errorf("%s: no modeling data survived the fault campaign", spec.Name))
		}
		datasets[spec.Name] = ds
	}
	if tr != nil {
		trep := tr.Finalize()
		fmt.Fprintln(os.Stderr, trep.Summary())
		if cfg.TriageOut != "" {
			if err := trep.WriteFile(cfg.TriageOut); err != nil {
				cliflags.Fatal("model", err)
			}
		}
	}
	train := func(ds *core.Dataset, kind core.Kind) *core.Model {
		m, err := s.Model(ctx, ds, kind)
		if err != nil {
			cliflags.Fatal("model", err)
		}
		return m
	}

	switch *fig {
	case 0:
		r2 := map[string][2]float64{}
		evals := map[string][2]*core.Eval{}
		models := map[string][2]*core.Model{}
		for _, spec := range boards {
			ds := datasets[spec.Name]
			pm := train(ds, core.Power)
			tm := train(ds, core.Time)
			pe, te := pm.Evaluate(ds.Rows), tm.Evaluate(ds.Rows)
			r2[spec.Name] = [2]float64{pe.AdjR2, te.AdjR2}
			evals[spec.Name] = [2]*core.Eval{pe, te}
			models[spec.Name] = [2]*core.Model{pm, tm}
			if *saveDir != "" {
				persist(*saveDir, spec.Name, ds, pm, tm)
			}
		}
		fmt.Println(report.Table56(r2, boards).String())
		fmt.Println(report.Table78(evals, boards).String())
		if *diagnose {
			for _, spec := range boards {
				ds := datasets[spec.Name]
				for i, kind := range []core.Kind{core.Power, core.Time} {
					m := models[spec.Name][i]
					diags, err := m.Diagnose(ds.Rows)
					if err != nil {
						cliflags.Fatal("model", err)
					}
					cond, err := m.SelectionConditionNumber(ds.Rows)
					if err != nil {
						cliflags.Fatal("model", err)
					}
					t := report.NewTable(
						fmt.Sprintf("Diagnostics — %s model (%s), condition number %.1f", kind, spec.Name, cond),
						"Variable", "VIF", "Std. coef")
					for _, d := range diags {
						t.AddRowf(d.Variable, fmt.Sprintf("%.1f", d.VIF), fmt.Sprintf("%+.3f", d.StdCoef))
					}
					fmt.Println(t.String())
				}
			}
		}

	case 5, 6:
		kind := core.Power
		if *fig == 6 {
			kind = core.Time
		}
		for _, spec := range boards {
			ds := datasets[spec.Name]
			m := train(ds, kind)
			title := fmt.Sprintf("Fig. %d — %s-model error distribution on %s", *fig, kind, spec.Name)
			fmt.Println(report.Fig56(title, m.PerBenchmarkErrors(ds.Rows)).String())
		}

	case 7, 8:
		kind := core.Power
		if *fig == 8 {
			kind = core.Time
		}
		for _, spec := range boards {
			points, err := core.VariableSweep(ctx, datasets[spec.Name], kind, core.SweepMinVars, core.SweepMaxVars)
			if err != nil {
				cliflags.Fatal("model", err)
			}
			title := fmt.Sprintf("Fig. %d — impact of explanatory variables on the %s model (%s)", *fig, kind, spec.Name)
			fmt.Println(report.Fig78(title, points).String())
		}

	case 9, 10:
		kind := core.Power
		if *fig == 10 {
			kind = core.Time
		}
		for _, spec := range boards {
			cols, err := core.PerPairComparisonWith(ctx, datasets[spec.Name], kind, *vars, nil)
			if err != nil {
				cliflags.Fatal("model", err)
			}
			title := fmt.Sprintf("Fig. %d — per-pair vs unified %s models (%s)", *fig, kind, spec.Name)
			fmt.Println(report.Fig910(title, cols))
		}

	case 11:
		for _, spec := range boards {
			ds := datasets[spec.Name]
			for _, kind := range []core.Kind{core.Power, core.Time} {
				m := train(ds, kind)
				title := fmt.Sprintf("Fig. 11 — selected variables and influence, %s model (%s)", kind, spec.Name)
				fmt.Println(report.Fig11(title, m.Influences(ds.Rows)).String())
			}
		}

	default:
		cliflags.Fatal("model", fmt.Errorf("no Fig. %d in the paper's Section IV (want 5–11)", *fig))
	}

	if err := camp.WriteArtifacts(cfg.Obs); err != nil {
		cliflags.Fatal("model", err)
	}
}

// persist writes the dataset and both trained models under dir, named by
// board (e.g. "gtx-680.power.json").
func persist(dir, board string, ds *core.Dataset, pm, tm *core.Model) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		cliflags.Fatal("model", err)
	}
	slug := strings.ToLower(strings.ReplaceAll(board, " ", "-"))
	write := func(name string, save func(io.Writer) error) {
		path := filepath.Join(dir, slug+"."+name+".json")
		f, err := os.Create(path)
		if err != nil {
			cliflags.Fatal("model", err)
		}
		defer f.Close()
		if err := save(f); err != nil {
			cliflags.Fatal("model", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	write("dataset", ds.Save)
	write("power", pm.Save)
	write("time", tm.Save)
}
