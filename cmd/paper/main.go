// Command paper runs the complete reproduction — every table and figure of
// the paper, the ablations and the Radeon future-work extension — and
// writes one consolidated text report.
//
// Usage:
//
//	paper                      full report to stdout (~10 s)
//	paper -o report.txt        write to a file
//	paper -quick               characterization only (seconds)
//	paper -board "GTX 680"     restrict to one board
//	paper -faults "launch.hang:0.02" -max-retries 5
//	                           chaos campaign: inject faults, retry, quarantine
//	paper -checkpoint j.jsonl  journal sweep cells; resume after a crash
//	paper -repetitions 5 -min-valid 3 -triage-out reports/baseline.json
//	                           repetition cohort: triage every cell and write
//	                           the machine-readable validity report
//	paper -trace-out t.json -metrics-out m.txt
//	                           record the campaign: Perfetto trace + metrics
//
// An interrupt (Ctrl-C) cancels the campaign at the next cell boundary;
// with -checkpoint the journal stays resumable.
package main

import (
	"flag"
	"fmt"
	"os"

	"gpuperf/internal/cliflags"
	"gpuperf/internal/report"
	"gpuperf/internal/reproduce"
	"gpuperf/internal/session"
	"gpuperf/internal/workloads"
)

func main() {
	out := flag.String("o", "", "write the report to a file instead of stdout")
	quick := flag.Bool("quick", false, "characterization only (skip modeling, ablations, future work)")
	board := flag.String("board", "", "restrict to one board")
	artifacts := flag.String("artifacts", "", "also write per-table/figure CSVs into this directory")
	camp := cliflags.Register(flag.CommandLine)
	flag.Parse()

	stopProf, err := camp.StartProfiling()
	if err != nil {
		cliflags.Fatal("paper", err)
	}
	defer stopProf()

	var boards []string
	if *board != "" {
		boards = []string{*board}
	}
	cfg, err := camp.Config(boards...)
	if err != nil {
		cliflags.Usage("paper", err)
	}
	cfg.ArtifactsDir = *artifacts
	s, err := session.Open(cfg)
	if err != nil {
		cliflags.Fatal("paper", err)
	}
	defer s.Close()
	ctx, stop := cliflags.SignalContext()
	defer stop()

	defer camp.StartProgress(ctx, cfg.Obs, os.Stderr,
		"characterize_cells_total", "core_rows_total", "fault_retries_total",
		"characterize_cells_quarantined_total", "driver_launch_cache_hits_total",
		"meter_windows_interpolated_total")()

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			cliflags.Fatal("paper", err)
		}
		defer f.Close()
		w = f
	}
	if cfg.FleetSize >= 1 {
		// A fleet campaign replaces the paper reproduction with the
		// population report over the Table IV set.
		rep, err := s.Fleet(ctx, workloads.Table4())
		if err != nil {
			cliflags.Fatal("paper", err)
		}
		fmt.Fprint(w, report.FleetSummary(rep))
		if err := camp.WriteArtifacts(cfg.Obs); err != nil {
			cliflags.Fatal("paper", err)
		}
		return
	}
	sec := reproduce.DefaultSections()
	if *quick {
		reproduce.Quick(&sec)
	}
	res, err := reproduce.Run(ctx, s, sec, w)
	if err != nil {
		cliflags.Fatal("paper", err)
	}
	if err := camp.WriteArtifacts(cfg.Obs); err != nil {
		cliflags.Fatal("paper", err)
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", res.Elapsed)
}
