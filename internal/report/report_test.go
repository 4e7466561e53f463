package report

import (
	"strings"
	"testing"

	"gpuperf/internal/arch"
	"gpuperf/internal/characterize"
	"gpuperf/internal/clock"
	"gpuperf/internal/core"
	"gpuperf/internal/regress"
	"gpuperf/internal/validity"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "a", "bb")
	tb.AddRow("x")
	tb.AddRowf(3.14159, 7)
	s := tb.String()
	if !strings.HasPrefix(s, "Title\n") {
		t.Error("title missing")
	}
	if !strings.Contains(s, "a") || !strings.Contains(s, "bb") {
		t.Error("headers missing")
	}
	if !strings.Contains(s, "3.142") {
		t.Errorf("float formatting wrong:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("%d lines, want 5:\n%s", len(lines), s)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "x", "y")
	tb.AddRow("a,b", `q"r`)
	csv := tb.CSV()
	want := "x,y\n\"a,b\",\"q\"\"r\"\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestBar(t *testing.T) {
	if got := Bar(0.5, 10); got != "#####....." {
		t.Errorf("Bar(0.5) = %q", got)
	}
	if got := Bar(-1, 4); got != "...." {
		t.Errorf("Bar(-1) = %q", got)
	}
	if got := Bar(2, 4); got != "####" {
		t.Errorf("Bar(2) = %q", got)
	}
}

func TestBoxLine(t *testing.T) {
	s := BoxLine(10, 20, 30, 40, 50, 0, 100, 40)
	if len(s) != 40 {
		t.Fatalf("width %d, want 40", len(s))
	}
	for _, ch := range []string{"|", "[", "]", "+"} {
		if !strings.Contains(s, ch) {
			t.Errorf("BoxLine missing %q: %q", ch, s)
		}
	}
	if idx := strings.Index(s, "+"); idx < strings.Index(s, "[") || idx > strings.Index(s, "]") {
		t.Errorf("median outside the box: %q", s)
	}
	if got := BoxLine(1, 2, 3, 4, 5, 5, 5, 20); strings.TrimSpace(got) != "" {
		t.Errorf("degenerate range should render blank, got %q", got)
	}
}

func TestTable1ContainsSpecs(t *testing.T) {
	s := Table1(arch.AllBoards()).String()
	for _, want := range []string{"GTX 285", "GTX 680", "Kepler", "1536", "648/1080/1411", "192.2"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table1 missing %q:\n%s", want, s)
		}
	}
}

func TestTable3MatchesValidity(t *testing.T) {
	s := Table3(arch.AllBoards()).String()
	if !strings.Contains(s, "Core-L, Mem-L") {
		t.Error("Table3 missing the (L-L) row")
	}
	// The (L-L) row: GTX 285 "-", GTX 460 "yes", GTX 480 "yes", GTX 680 "-".
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "Core-L, Mem-L") {
			if !strings.Contains(line, "-") || strings.Count(line, "yes") != 2 {
				t.Errorf("(L-L) row wrong: %q", line)
			}
		}
	}
}

func fakeSweep(bench string) *characterize.BenchResult {
	return &characterize.BenchResult{
		Benchmark: bench,
		Board:     "GTX 680",
		Pairs: []characterize.PairResult{
			{Pair: clock.DefaultPair(), TimePerIter: 1, AvgWatts: 200, EnergyPerIter: 200},
			{Pair: clock.Pair{Core: arch.FreqMid, Mem: arch.FreqHigh}, TimePerIter: 1.1, AvgWatts: 140, EnergyPerIter: 154},
		},
	}
}

func TestTable4AndFig4(t *testing.T) {
	boards := []*arch.Spec{arch.GTX680()}
	results := map[string][]*characterize.BenchResult{"GTX 680": {fakeSweep("backprop")}}
	s := Table4(boards, results, nil).String()
	if !strings.Contains(s, "backprop") || !strings.Contains(s, "(M-H)") {
		t.Errorf("Table4 wrong:\n%s", s)
	}
	f := Fig4(boards, results)
	if !strings.Contains(f, "backprop") || !strings.Contains(f, "%") {
		t.Errorf("Fig4 wrong:\n%s", f)
	}
}

// TestTable4TriageGate: a cell the triage engine judged non-VALID renders
// "n/a (unstable)" even though the sweep itself produced a best pair.
func TestTable4TriageGate(t *testing.T) {
	boards := []*arch.Spec{arch.GTX680()}
	results := map[string][]*characterize.BenchResult{"GTX 680": {fakeSweep("backprop")}}
	cohort := validity.Cohort{Seed: 42, Boards: []string{"GTX 680"}, CodeVersion: "test"}
	tr := validity.NewTriage(cohort, 1, 1, 0)
	if err := tr.Observe("table4", "GTX 680", "backprop", "(M-H)", validity.Run{
		Verdict: validity.Verdict{Class: validity.InfraFlake, Reason: "retry budget exhausted at launch.hang"},
	}); err != nil {
		t.Fatal(err)
	}
	s := Table4(boards, results, tr).String()
	if !strings.Contains(s, "n/a (unstable)") {
		t.Errorf("triage-gated Table4 still shows a best pair:\n%s", s)
	}
	if strings.Contains(s, "(M-H)") {
		t.Errorf("triage-gated Table4 leaked the best pair:\n%s", s)
	}
}

func TestFigCurves(t *testing.T) {
	spec := arch.GTX680()
	curves := []characterize.Curve{{
		MemLevel: arch.FreqHigh,
		MemMHz:   3004,
		Points:   []characterize.CurvePoint{{CoreMHz: 1411, Perf: 1, Efficiency: 1}},
	}}
	s := FigCurves("Fig. 1", spec, curves).String()
	if !strings.Contains(s, "Mem-H") || !strings.Contains(s, "1411") {
		t.Errorf("FigCurves wrong:\n%s", s)
	}
}

func TestModelTables(t *testing.T) {
	boards := []*arch.Spec{arch.GTX285(), arch.GTX680()}
	r2 := map[string][2]float64{"GTX 285": {0.30, 0.91}, "GTX 680": {0.18, 0.91}}
	s := Table56(r2, boards).String()
	if !strings.Contains(s, "0.30") || !strings.Contains(s, "0.18") {
		t.Errorf("Table56 wrong:\n%s", s)
	}
	evals := map[string][2]*core.Eval{
		"GTX 285": {{MeanAbsPct: 15.0, MeanAbsRaw: 20.1}, {MeanAbsPct: 67.9}},
		"GTX 680": {{MeanAbsPct: 23.5, MeanAbsRaw: 23.7}, {MeanAbsPct: 33.5}},
	}
	s = Table78(evals, boards).String()
	for _, want := range []string{"15.0", "20.1", "67.9", "33.5"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table78 missing %q:\n%s", want, s)
		}
	}
}

func TestFigureRenderers(t *testing.T) {
	s := Fig56("Fig. 5", []core.BenchmarkError{{Benchmark: "sgemm", MeanPct: 12.5}}).String()
	if !strings.Contains(s, "sgemm") || !strings.Contains(s, "12.5") {
		t.Errorf("Fig56 wrong:\n%s", s)
	}
	s = Fig78("Fig. 7", []core.SweepPoint{{Vars: 5, AdjR2: 0.5, MeanAbsPct: 20}}).String()
	if !strings.Contains(s, "0.500") {
		t.Errorf("Fig78 wrong:\n%s", s)
	}
	s = Fig910("Fig. 9", []core.PairEval{
		{Label: "(H-H)", Box: regress.BoxStats{Min: 1, Q1: 2, Median: 3, Q3: 4, Max: 5}},
		{Label: "unified", Box: regress.BoxStats{Min: 2, Q1: 3, Median: 4, Q3: 6, Max: 9}},
	})
	if !strings.Contains(s, "unified") || !strings.Contains(s, "+") {
		t.Errorf("Fig910 wrong:\n%s", s)
	}
	s = Fig11("Fig. 11", []core.Influence{{Variable: "inst_executed", Share: 0.4}}).String()
	if !strings.Contains(s, "inst_executed") || !strings.Contains(s, "40.0%") {
		t.Errorf("Fig11 wrong:\n%s", s)
	}
}

func TestMarkdownRendering(t *testing.T) {
	tb := NewTable("Title", "a", "b")
	tb.AddRow("x|y", "2")
	md := tb.Markdown()
	for _, want := range []string{"**Title**", "| a | b |", "|---|---|", `x\|y`} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	lines := strings.Split(strings.TrimRight(md, "\n"), "\n")
	if len(lines) != 5 { // caption, blank, header, rule, row
		t.Errorf("%d lines, want 5:\n%s", len(lines), md)
	}
}

func TestChartRendersSeries(t *testing.T) {
	c := NewChart("Fig. 1 (GTX 680)", "core MHz", "normalized perf")
	if err := c.AddSeries("Mem-H", []float64{648, 1080, 1411}, []float64{0.46, 0.77, 1.0}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddSeries("Mem-L", []float64{1080, 1411}, []float64{0.75, 0.97}); err != nil {
		t.Fatal(err)
	}
	s := c.String()
	for _, want := range []string{"Fig. 1 (GTX 680)", "Mem-H", "Mem-L", "core MHz", "*", "o", "+--"} {
		if !strings.Contains(s, want) {
			t.Errorf("chart missing %q:\n%s", want, s)
		}
	}
	lines := strings.Split(s, "\n")
	if len(lines) < 16 {
		t.Errorf("chart too short: %d lines", len(lines))
	}
}

func TestChartEdgeCases(t *testing.T) {
	c := NewChart("empty", "x", "y")
	if !strings.Contains(c.String(), "no data") {
		t.Error("empty chart should say so")
	}
	if err := c.AddSeries("bad", []float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := c.AddSeries("empty", nil, nil); err == nil {
		t.Error("empty series accepted")
	}
	// Constant series must not divide by zero.
	if err := c.AddSeries("flat", []float64{1, 2}, []float64{5, 5}); err != nil {
		t.Fatal(err)
	}
	if s := c.String(); !strings.Contains(s, "flat") {
		t.Errorf("flat series lost:\n%s", s)
	}
}
