package gpuperf_test

import (
	"context"
	"fmt"
	"io"
	"log"

	"gpuperf"
)

// The session quick start: one Session owns the campaign configuration
// (seed, workers, boards, fault policy, checkpointing) and its Device
// factory hands out boards wired to it. Reprogram the clocks the way the
// paper does (VBIOS patch + reboot) and compare energies.
func Example() {
	s, err := gpuperf.OpenSession(gpuperf.WithBoards("GTX 680"))
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	dev, err := s.Device("GTX 680")
	if err != nil {
		log.Fatal(err)
	}
	def, err := gpuperf.RunBenchmark(dev, "backprop", 1.0)
	if err != nil {
		log.Fatal(err)
	}
	if err := dev.SetClocks(gpuperf.MustPair("M-L")); err != nil {
		log.Fatal(err)
	}
	low, err := gpuperf.RunBenchmark(dev, "backprop", 1.0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("energy drops at (M-L): %v\n", low.EnergyPerIterJ < def.EnergyPerIterJ)
	// Output:
	// energy drops at (M-L): true
}

// A full context-aware sweep campaign through the Session engine — the
// paper's Table IV cells for one board, cancellable via the context and
// bit-identical at any worker count.
func ExampleOpenSession() {
	s, err := gpuperf.OpenSession(gpuperf.WithBoards("GTX 680"), gpuperf.WithWorkers(4))
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	results, err := s.Sweep(context.Background(), gpuperf.Table4Benchmarks())
	if err != nil {
		log.Fatal(err)
	}
	best := results["GTX 680"][0].Best()
	fmt.Printf("%d Table IV rows; backprop's best pair beats (H-H): %v\n",
		len(results["GTX 680"]), best.Pair != gpuperf.MustPair("H-H"))
	// Output:
	// 33 Table IV rows; backprop's best pair beats (H-H): true
}

// The paper's Section III report from an open session: QuickReport keeps
// the characterization sections, and the result carries Fig. 4's mean
// power-efficiency gain per board.
func ExampleReproduce() {
	s, err := gpuperf.OpenSession(gpuperf.WithBoards("GTX 680"))
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	res, err := gpuperf.Reproduce(context.Background(), s, io.Discard, gpuperf.QuickReport)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GTX 680 mean gain %.1f%%\n", res.MeanImprovementPct["GTX 680"])
	// Output:
	// GTX 680 mean gain 28.8%
}

// Enumerate the frequency pairs a board's BIOS exposes (Table III).
func ExampleValidPairs() {
	spec := gpuperf.Board("GTX 680")
	for _, p := range gpuperf.ValidPairs(spec) {
		fmt.Print(p, " ")
	}
	fmt.Println()
	// Output:
	// (H-H) (H-M) (H-L) (M-H) (M-M) (M-L) (L-H)
}

// Find the minimum-energy frequency pair for a workload — one cell of the
// paper's Table IV.
func ExampleBestPair() {
	dev, err := gpuperf.OpenDevice("GTX 285")
	if err != nil {
		log.Fatal(err)
	}
	pair, _, err := gpuperf.BestPair(dev, "streamcluster")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("memory-bound workloads keep Mem-H: %v\n", pair.Mem == gpuperf.High)
	// Output:
	// memory-bound workloads keep Mem-H: true
}

// Parse the paper's pair notation.
func ExampleParsePair() {
	p, err := gpuperf.ParsePair("(H-L)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(p.Core, p.Mem)
	// Output:
	// H L
}

// Train the paper's unified models (Eq. 1 and Eq. 2) and check the Table
// V/VI relationship: the performance model's R̄² is far above the power
// model's.
func ExampleTrainModel() {
	ds, err := gpuperf.CollectDataset("GTX 680", 42)
	if err != nil {
		log.Fatal(err)
	}
	power, err := gpuperf.TrainModel(ds, gpuperf.PowerModel)
	if err != nil {
		log.Fatal(err)
	}
	time, err := gpuperf.TrainModel(ds, gpuperf.TimeModel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one unified model per GPU, %d variables each\n", 10)
	fmt.Printf("power R̄² below time R̄²: %v\n", power.AdjR2() < time.AdjR2())
	// Output:
	// one unified model per GPU, 10 variables each
	// power R̄² below time R̄²: true
}

// Plan a batch of jobs under an energy budget (the related-work
// power-constrained scheduling problem, on measured operating points).
func ExamplePlanBatchUnderEnergy() {
	dev, err := gpuperf.OpenDevice("GTX 680")
	if err != nil {
		log.Fatal(err)
	}
	fast, err := gpuperf.PlanBatchUnderEnergy(dev, []string{"backprop", "sgemm"}, 0)
	if err != nil {
		log.Fatal(err)
	}
	tight, err := gpuperf.PlanBatchUnderEnergy(dev, []string{"backprop", "sgemm"}, fast.TotalEnergyJ*0.85)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tighter budget is feasible: %v, and no faster: %v\n",
		tight.Feasible, tight.TotalTimeS >= fast.TotalTimeS)
	// Output:
	// tighter budget is feasible: true, and no faster: true
}
