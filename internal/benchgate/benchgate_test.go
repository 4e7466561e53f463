package benchgate

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: gpuperf
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkReproduce 	       3	 384117464 ns/op
BenchmarkReproduce 	       3	 370223818 ns/op
BenchmarkReproduce-8 	       3	 365551101 ns/op
BenchmarkSweepBoard/workers=1         	       3	   3989277 ns/op
BenchmarkSweepBoard/workers=8-4       	       3	   5192630 ns/op	 120 B/op	       2 allocs/op
BenchmarkTable3FreqPairs 	     100	     12345 ns/op	        94.0 pairs
PASS
ok  	gpuperf	1.536s
`

func TestParseBenchOutput(t *testing.T) {
	got, err := ParseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	// The -P GOMAXPROCS suffix must fold into the bare name; -count
	// repetitions append in order.
	if want := []float64{384117464, 370223818, 365551101}; len(got["BenchmarkReproduce"]) != 3 ||
		got["BenchmarkReproduce"][0] != want[0] || got["BenchmarkReproduce"][2] != want[2] {
		t.Fatalf("BenchmarkReproduce samples = %v, want %v", got["BenchmarkReproduce"], want)
	}
	// Sub-benchmark paths keep their /workers= suffix but drop -P.
	if v := got["BenchmarkSweepBoard/workers=8"]; len(v) != 1 || v[0] != 5192630 {
		t.Fatalf("workers=8 samples = %v", v)
	}
	if v := got["BenchmarkSweepBoard/workers=1"]; len(v) != 1 || v[0] != 3989277 {
		t.Fatalf("workers=1 samples = %v", v)
	}
	// Custom-metric lines parse on the ns/op field only.
	if v := got["BenchmarkTable3FreqPairs"]; len(v) != 1 || v[0] != 12345 {
		t.Fatalf("metric-bearing line samples = %v", v)
	}
}

func TestParseBenchOutputRejectsGarbage(t *testing.T) {
	if _, err := ParseBenchOutput(strings.NewReader("BenchmarkX 3 notanumber ns/op\n")); err == nil {
		t.Fatal("bad ns/op field did not error")
	}
}

func TestGateVerdicts(t *testing.T) {
	cases := []struct {
		name     string
		samples  []float64
		baseline float64
		pass     bool
	}{
		{"fast", []float64{90, 110, 95}, 100, true},
		{"exactly at threshold", []float64{110}, 100, true},
		{"just past threshold", []float64{110.1}, 100, false},
		{"min filters noise", []float64{200, 105, 180}, 100, true},
		{"regressed", []float64{130, 125, 140}, 100, false},
	}
	for _, tc := range cases {
		r, err := Gate("B", tc.samples, tc.baseline, 0.10)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if r.Pass != tc.pass {
			t.Errorf("%s: pass=%v, want %v (%s)", tc.name, r.Pass, tc.pass, r)
		}
	}
	if _, err := Gate("B", nil, 100, 0.10); err == nil {
		t.Error("empty samples did not error")
	}
	if _, err := Gate("B", []float64{1}, 0, 0.10); err == nil {
		t.Error("zero baseline did not error")
	}
}

func TestLoadBaseline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "b.json")
	if err := os.WriteFile(path, []byte(`{"benchmark":"BenchmarkReproduce","after":{"ns_per_op":367018340}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ns, err := LoadBaseline(path, "BenchmarkReproduce")
	if err != nil {
		t.Fatal(err)
	}
	if ns != 367018340 {
		t.Fatalf("ns = %g", ns)
	}
	if _, err := LoadBaseline(path, "BenchmarkOther"); err == nil {
		t.Error("benchmark-name mismatch did not error")
	}
	if _, err := LoadBaseline(filepath.Join(dir, "missing.json"), "B"); err == nil {
		t.Error("missing file did not error")
	}
}

func TestLoadBaselineRealFile(t *testing.T) {
	// The repo's checked-in baselines must stay loadable: the CI bench-gate
	// job trusts BENCH_fleet.json, and BENCH_baseline.json is the default.
	for _, path := range []string{"../../BENCH_baseline.json", "../../BENCH_fleet.json"} {
		ns, err := LoadBaseline(path, "BenchmarkReproduce")
		if err != nil {
			t.Fatal(err)
		}
		if ns <= 0 {
			t.Fatalf("%s: baseline ns/op = %g", path, ns)
		}
	}
}
