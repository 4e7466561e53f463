// Command selfcheck verifies the simulated apparatus end to end: VBIOS
// round trips, energy conservation through the meter, DVFS monotonicity,
// profiler determinism, the Fig. 4 generation ladder and model sanity —
// plus the static invariants (gpulint: unit safety, error and goroutine
// hygiene, determinism taint) when run inside the module. Counter
// classification is checked where each counter set is built. Exit status
// 0 means every invariant holds.
package main

import (
	"flag"
	"fmt"
	"os"

	"gpuperf/internal/lint"
	"gpuperf/internal/selfcheck"
)

func main() {
	seed := flag.Int64("seed", 42, "measurement-noise seed")
	static := flag.Bool("static", true, "run the gpulint static invariants (needs the module source on disk)")
	dynamic := flag.Bool("dynamic", true, "run the dynamic apparatus invariants")
	flag.Parse()

	var results []selfcheck.Result
	if *static {
		if root, err := lint.FindModuleRoot("."); err == nil {
			results = append(results, selfcheck.RunStatic(root)...)
		} else {
			fmt.Fprintf(os.Stderr, "selfcheck: skipping static invariants: %v\n", err)
		}
	}
	if *dynamic {
		results = append(results, selfcheck.Run(*seed)...)
	}

	failed := 0
	for _, r := range results {
		status := "ok  "
		if !r.OK {
			status = "FAIL"
			failed++
		}
		fmt.Printf("%s  %-36s %s\n", status, r.Name, r.Detail)
	}
	fmt.Printf("\n%d checks, %d failed\n", len(results), failed)
	if failed > 0 {
		os.Exit(1)
	}
}
