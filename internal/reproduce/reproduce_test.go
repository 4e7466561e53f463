package reproduce

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuickRunSingleBoard(t *testing.T) {
	opts := DefaultOptions()
	opts.Modeling = false
	opts.Ablations = false
	opts.FutureWork = false
	opts.Boards = []string{"GTX 680"}

	var buf bytes.Buffer
	res, err := RunContext(context.Background(), opts, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"TABLE I", "TABLE III", "Fig. 1", "Fig. 2", "Fig. 3",
		"TABLE IV", "Fig. 4", "GTX 680",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(out, "Section IV") {
		t.Error("modeling section present despite being disabled")
	}
	if imp := res.MeanImprovementPct["GTX 680"]; imp < 10 {
		t.Errorf("GTX 680 mean improvement %.1f%%, want the Kepler regime", imp)
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed not recorded")
	}
}

func TestRunRejectsUnknownBoard(t *testing.T) {
	for _, tc := range []struct {
		boards []string
		want   string
	}{
		{[]string{"GTX 9999"}, `session: unknown board "GTX 9999"`},
		{[]string{"GTX 480", "GTX 480"}, `session: board "GTX 480" listed twice`},
	} {
		opts := DefaultOptions()
		opts.Boards = tc.boards
		if _, err := RunContext(context.Background(), opts, &bytes.Buffer{}); err == nil || err.Error() != tc.want {
			t.Errorf("boards %q: got %v, want %q", tc.boards, err, tc.want)
		}
	}
}

func TestFullRunHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction is seconds-long; skipped in -short")
	}
	var buf bytes.Buffer
	res, err := RunContext(context.Background(), DefaultOptions(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"TABLES V & VI", "TABLES VII & VIII",
		"Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8", "Fig. 9", "Fig. 10", "Fig. 11",
		"Ablations", "Radeon", "reproduction completed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// The paper's headline relationships, end to end.
	if !(res.MeanImprovementPct["GTX 285"] < res.MeanImprovementPct["GTX 680"]) {
		t.Error("Fig. 4 generation ladder violated")
	}
	for _, board := range []string{"GTX 285", "GTX 460", "GTX 480", "GTX 680"} {
		if !(res.PowerR2[board] < res.TimeR2[board]) {
			t.Errorf("%s: power R̄² %.2f not below time R̄² %.2f", board, res.PowerR2[board], res.TimeR2[board])
		}
		if !(res.TimeErrPct[board] > res.PowerErrPct[board]) {
			t.Errorf("%s: time error %.1f%% not above power error %.1f%%", board, res.TimeErrPct[board], res.PowerErrPct[board])
		}
		if res.PowerErrW[board] > 30 {
			t.Errorf("%s: power error %.1f W above the paper's ~25 W ceiling", board, res.PowerErrW[board])
		}
	}
	if !(res.PowerR2["GTX 680"] < res.PowerR2["GTX 285"]) {
		t.Error("Kepler should have the lowest power-model R̄² (Table V)")
	}
}

func TestArtifactsDirectory(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.Modeling = false
	opts.Ablations = false
	opts.FutureWork = false
	opts.Boards = []string{"GTX 680"}
	opts.ArtifactsDir = dir
	if _, err := RunContext(context.Background(), opts, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table1.csv", "table3.csv", "table4.csv", "fig1-gtx-680.csv", "fig4.txt"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("artifact %s missing: %v", want, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "table4.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "backprop") {
		t.Error("table4.csv lacks benchmark rows")
	}
}
