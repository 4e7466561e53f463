package reproduce

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestExperimentsMatchGolden keeps EXPERIMENTS.md honest: the "Measured"
// (or, in the Ablations and Extensions tables, "Result") cells of the
// rows below must read what the seed-42 full report (the golden
// `paper -seed 42` output) prints, so regenerating the golden without
// correcting the doc fails here and names the row.
func TestExperimentsMatchGolden(t *testing.T) {
	doc := readText(t, "../../EXPERIMENTS.md")
	golden := strings.Split(readText(t, "testdata/paper-full-seed42.golden"), "\n")
	measured := measuredCells(doc)

	r2 := tableRows(t, golden, "TABLES V & VI")
	errs := tableRows(t, golden, "TABLES VII & VIII")
	// Table IV's cell counts the non-default best pairs per board column.
	table4 := tableRows(t, golden, "TABLE IV")
	var nonDefault []string
	for b, r := range r2 {
		n := 0
		for _, row := range table4 {
			if row[len(row)-len(r2)+b] != "(H-H)" {
				n++
			}
		}
		nonDefault = append(nonDefault, fmt.Sprintf("%s %s: %d/%d", r[0], r[1], n, len(table4)))
	}
	var fig4 []string
	for _, m := range regexp.MustCompile(`(?m)^GTX \d+ \(mean ([\d.]+)%\)$`).FindAllStringSubmatch(strings.Join(golden, "\n"), -1) {
		fig4 = append(fig4, m[1])
	}
	fig1 := regexp.MustCompile(`(?m)^Fig\. 1 — backprop on GTX 680 \(best \S+, \+([\d.]+)% efficiency, ([\d.]+)% perf loss\)$`).
		FindStringSubmatch(strings.Join(golden, "\n"))
	if fig1 == nil {
		t.Fatal("golden has no GTX 680 Fig. 1 headline")
	}

	exact := map[string]string{
		"Table V (power R̄²)":   slashed(column(r2, 2)),
		"Table VI (time R̄²)":   slashed(column(r2, 3)),
		"Table VII (power err)": slashed(column(errs, 2)) + " % ; " + slashed(column(errs, 3)) + " W",
		"Table VIII (time err)": slashed(column(errs, 4)) + " %",
		"Fig. 4":                slashed(fig4) + "%",
		"Fig. 7":                saturation(t, golden, "Fig. 7 — variables vs accuracy, power model (GTX 680)"),
		"Fig. 8":                saturation(t, golden, "Fig. 8 — variables vs accuracy, time model (GTX 680)"),
	}
	for id, want := range exact {
		if got, ok := measured[id]; !ok {
			t.Errorf("EXPERIMENTS.md has no %q row", id)
		} else if got != want {
			t.Errorf("EXPERIMENTS.md %q measured = %q, golden says %q", id, got, want)
		}
	}
	// The ablation and extension lines come from single-device sweeps.
	flat := regexp.MustCompile(`(?m)^voltage-flat GTX 680: backprop best-pair gain ([\d.]+)% → ([\d.]+)%$`).
		FindStringSubmatch(strings.Join(golden, "\n"))
	blind := regexp.MustCompile(`(?m)^clock-blind power model: ([\d.]+)% error vs unified ([\d.]+)%$`).
		FindStringSubmatch(strings.Join(golden, "\n"))
	radeon := regexp.MustCompile(`(?m)^  backprop +best \S+ +\+([\d.]+)% efficiency`).
		FindStringSubmatch(strings.Join(golden, "\n"))
	if flat == nil || blind == nil || radeon == nil {
		t.Fatal("golden lacks the voltage-flat, clock-blind or Radeon backprop line")
	}

	contains := map[string][]string{
		"Fig. 1 (Backprop)":              {fmt.Sprintf("GTX 680 gain %s%% at %s%% perf loss", fig1[1], fig1[2])},
		"Table IV":                       nonDefault,
		"`BenchmarkAblationVoltageFlat`": {fmt.Sprintf("GTX 680 backprop gain %s%% → %s%%", flat[1], flat[2])},
		"`BenchmarkAblationNoFreqScaling`": {
			fmt.Sprintf("unified power err %s%% vs naive (clock-blind) %s%%", blind[2], blind[1])},
		"`BenchmarkFutureWorkRadeon`": {
			fmt.Sprintf("Radeon HD 7970 backprop best-pair gain %s%% vs Kepler's %s%%", radeon[1], flat[1])},
	}
	for id, wants := range contains {
		for _, want := range wants {
			if !strings.Contains(measured[id], want) {
				t.Errorf("EXPERIMENTS.md %q measured = %q, want it to contain %q (golden)", id, measured[id], want)
			}
		}
	}
}

func readText(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// measuredCells maps the ID cell of every "| ID | Paper | Measured | … |"
// Markdown row to its trimmed Measured cell, and of every three-column
// "| Bench | Result | Reading |" row (the Ablations and Extensions
// tables) to its trimmed Result cell.
func measuredCells(doc string) map[string]string {
	out := map[string]string{}
	for _, line := range strings.Split(doc, "\n") {
		cells := strings.Split(line, "|")
		if !strings.HasPrefix(line, "| ") || len(cells) < 5 {
			continue
		}
		col := 3
		if len(cells) == 5 {
			col = 2
		}
		out[strings.TrimSpace(cells[1])] = strings.TrimSpace(cells[col])
	}
	return out
}

// tableRows returns the whitespace-split rows of the golden table whose
// title line starts with title: every line between its dashed rule and
// the next blank line.
func tableRows(t *testing.T, golden []string, title string) [][]string {
	t.Helper()
	for i, l := range golden {
		if !strings.HasPrefix(l, title) {
			continue
		}
		for i < len(golden) && !strings.HasPrefix(golden[i], "---") {
			i++
		}
		var rows [][]string
		for i++; i < len(golden) && golden[i] != ""; i++ {
			rows = append(rows, strings.Fields(golden[i]))
		}
		return rows
	}
	t.Fatalf("golden has no %q table", title)
	return nil
}

func column(rows [][]string, i int) []string {
	var out []string
	for _, r := range rows {
		out = append(out, r[i])
	}
	return out
}

func slashed(vals []string) string { return strings.Join(vals, " / ") }

// saturation renders a Figs. 7/8 cell — mean error at 5, 10 and 20
// variables — from the golden's variables-vs-accuracy table title.
func saturation(t *testing.T, golden []string, title string) string {
	t.Helper()
	var parts []string
	for _, r := range tableRows(t, golden, title) {
		if r[0] == "5" || r[0] == "10" || r[0] == "20" {
			parts = append(parts, r[2]+"% @"+r[0])
		}
	}
	return strings.Join(parts, " → ")
}
