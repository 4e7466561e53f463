// Command sched plans a batch of benchmarks under an energy budget or a
// deadline: it sweeps each job's frequency pairs on the chosen board, then
// solves the discrete time/energy tradeoff exactly.
//
// Usage:
//
//	sched -board "GTX 680" -jobs backprop,sgemm,lbm -budget 80
//	sched -jobs backprop,sgemm -deadline 0.5
//
// The device comes from a campaign session, and sched takes the core
// campaign flags only (-seed, -nocache and the observability and profile
// outputs), which behave as in the sweep commands. Its sweeps run one
// fault-free attempt per pair on one device, so it takes no fault, retry,
// pool, journal or fleet flag; run fault campaigns with characterize or
// paper.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gpuperf"
	"gpuperf/internal/cliflags"
	"gpuperf/internal/session"
)

func main() {
	board := flag.String("board", "GTX 680", "board name (Table I)")
	jobsArg := flag.String("jobs", "backprop,streamcluster,sgemm", "comma-separated benchmark names")
	budget := flag.Float64("budget", 0, "total energy budget in joules (0 = unlimited)")
	deadline := flag.Float64("deadline", 0, "total time deadline in seconds (alternative to -budget)")
	camp := cliflags.Register(flag.CommandLine)
	flag.Parse()

	stopProf, err := camp.StartProfiling()
	if err != nil {
		cliflags.Fatal("sched", err)
	}
	defer stopProf()

	jobs := strings.Split(*jobsArg, ",")
	for i := range jobs {
		jobs[i] = strings.TrimSpace(jobs[i])
	}

	cfg, err := camp.Config(*board)
	if err != nil {
		cliflags.Usage("sched", err)
	}
	s, err := session.Open(cfg)
	if err != nil {
		cliflags.Fatal("sched", err)
	}
	defer s.Close()

	dev, err := s.Device(*board)
	if err != nil {
		cliflags.Fatal("sched", err)
	}

	var plan *gpuperf.BatchPlan
	switch {
	case *deadline > 0:
		plan, err = gpuperf.PlanBatchUnderDeadline(dev, jobs, *deadline)
	default:
		plan, err = gpuperf.PlanBatchUnderEnergy(dev, jobs, *budget)
	}
	if err != nil {
		cliflags.Fatal("sched", err)
	}

	if !plan.Feasible {
		fmt.Printf("constraint infeasible; showing the floor configuration:\n")
	}
	fmt.Printf("%-16s %-7s %12s %12s\n", "job", "pair", "time", "energy")
	for _, a := range plan.Assignments {
		fmt.Printf("%-16s %-7s %9.1f ms %9.2f J\n",
			a.Job, a.Option.Pair, a.Option.TimeS*1e3, a.Option.EnergyJ)
	}
	fmt.Printf("%-16s %-7s %9.1f ms %9.2f J\n", "TOTAL", "", plan.TotalTimeS*1e3, plan.TotalEnergyJ)
	if err := camp.WriteArtifacts(cfg.Obs); err != nil {
		cliflags.Fatal("sched", err)
	}
	if !plan.Feasible {
		os.Exit(1)
	}
}
