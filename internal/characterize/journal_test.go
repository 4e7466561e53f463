package characterize

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpuperf/internal/clock"
	"gpuperf/internal/validity"
)

func testCohort(seed int64, profile string) validity.Cohort {
	return validity.Cohort{Seed: seed, Boards: []string{"GTX 480"}, Profile: profile, CodeVersion: "test"}
}

// collectWarn returns a JournalConfig.Warn that appends rendered warnings.
func collectWarn(warnings *[]string) func(string, ...any) {
	return func(format string, args ...any) {
		*warnings = append(*warnings, fmt.Sprintf(format, args...))
	}
}

// writeLegacyJournal fabricates a v1 journal file: a (seed, profile)
// header and one clean plus one quarantined cell without verdicts, the
// exact bytes a pre-cohort binary would have left behind.
func writeLegacyJournal(t *testing.T, path string, seed int64, profile string) (clean, quar PairResult) {
	t.Helper()
	p, err := clock.ParsePair("(H-L)")
	if err != nil {
		t.Fatal(err)
	}
	clean = PairResult{Pair: p, TimePerIter: 0.125, AvgWatts: 200, EnergyPerIter: 25, Confidence: 1}
	quar = PairResult{Pair: clock.DefaultPair(), Quarantined: true, FailPoint: "launch.hang", Retries: 5}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, line := range []any{
		journalHeader{Kind: "header", Version: journalVersionLegacy, Seed: seed, Profile: profile},
		journalCell{Kind: "cell", Board: "GTX 480", Bench: "backprop", Pair: clean.Pair.String(), Result: clean},
		journalCell{Kind: "cell", Board: "GTX 480", Bench: "backprop", Pair: quar.Pair.String(), Result: quar},
	} {
		if err := enc.Encode(line); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return clean, quar
}

// TestJournalMigratesMatchingLegacy: a v1 journal whose (seed, profile)
// match the campaign is migrated — cells retained, verdicts re-derived,
// file rewritten under the v2 header.
func TestJournalMigratesMatchingLegacy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	clean, quar := writeLegacyJournal(t, path, 42, "launch.hang:0.1")
	var warnings []string
	j, err := OpenJournalCohort(path, JournalConfig{
		Cohort: testCohort(42, "launch.hang:0.1"),
		Warn:   collectWarn(&warnings),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 2 {
		t.Fatalf("migrated journal holds %d cells, want 2", j.Len())
	}
	got, ok := j.Lookup("GTX 480", "backprop", 0, clean.Pair)
	if !ok || got.Verdict.Class != validity.Valid {
		t.Errorf("migrated clean cell: verdict %+v (ok=%v), want VALID", got.Verdict, ok)
	}
	gq, ok := j.Lookup("GTX 480", "backprop", 0, quar.Pair)
	if !ok || gq.Verdict.Class != validity.InfraFlake ||
		!strings.Contains(gq.Verdict.Reason, "launch.hang after 6 attempts") {
		t.Errorf("migrated quarantined cell: verdict %+v (ok=%v), want INFRA_FLAKE blaming launch.hang", gq.Verdict, ok)
	}
	if len(warnings) == 0 || !strings.Contains(warnings[0], "migrating legacy") {
		t.Errorf("migration not announced: %q", warnings)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var h journalHeader
	if err := json.Unmarshal(data[:bytes.IndexByte(data, '\n')], &h); err != nil {
		t.Fatal(err)
	}
	if h.Version != journalVersion || h.Cohort != testCohort(42, "launch.hang:0.1").Hash() {
		t.Errorf("rewritten header %+v lacks the v2 cohort binding", h)
	}
}

// TestJournalBacksUpMismatchedLegacy: a v1 journal recorded under a
// different (seed, profile) is backed up to <path>.stale — never
// truncated — with a warning naming both configurations.
func TestJournalBacksUpMismatchedLegacy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	writeLegacyJournal(t, path, 7, "boot.fail:0.5")
	original, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var warnings []string
	j, err := OpenJournalCohort(path, JournalConfig{
		Cohort: testCohort(42, ""),
		Warn:   collectWarn(&warnings),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 0 {
		t.Errorf("mismatched legacy journal retained %d cells", j.Len())
	}
	stale, err := os.ReadFile(path + ".stale")
	if err != nil {
		t.Fatalf("no .stale backup: %v", err)
	}
	if !bytes.Equal(stale, original) {
		t.Error(".stale backup is not byte-identical to the original journal")
	}
	joined := strings.Join(warnings, "\n")
	for _, want := range []string{"seed=7", `profile="boot.fail:0.5"`, "seed=42", ".stale"} {
		if !strings.Contains(joined, want) {
			t.Errorf("warnings %q missing %q", joined, want)
		}
	}
}

// TestJournalBacksUpUnparseableHeader: a file with no parseable header —
// e.g. a journal torn inside its first line — is preserved as .stale.
func TestJournalBacksUpUnparseableHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	if err := os.WriteFile(path, []byte(`{"kind":"hea`), 0o644); err != nil {
		t.Fatal(err)
	}
	var warnings []string
	j, err := OpenJournalCohort(path, JournalConfig{Cohort: testCohort(1, ""), Warn: collectWarn(&warnings)})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := os.Stat(path + ".stale"); err != nil {
		t.Errorf("no .stale backup: %v", err)
	}
	if joined := strings.Join(warnings, "\n"); !strings.Contains(joined, "no parseable header") {
		t.Errorf("warnings %q do not explain the backup", joined)
	}
}

// TestJournalSkipsCorruptInteriorLines: arbitrary corruption in the
// middle of a journal loses only the damaged lines; intact cells before
// and after it still replay, each skip warned about.
func TestJournalSkipsCorruptInteriorLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	cohort := testCohort(1, "")
	j, err := OpenJournalCohort(path, JournalConfig{Cohort: cohort})
	if err != nil {
		t.Fatal(err)
	}
	pHL, err := clock.ParsePair("(H-L)")
	if err != nil {
		t.Fatal(err)
	}
	pLL, err := clock.ParsePair("(L-L)")
	if err != nil {
		t.Fatal(err)
	}
	a := PairResult{Pair: pHL, TimePerIter: 1, AvgWatts: 2, EnergyPerIter: 2, Confidence: 1}
	a.Verdict = a.Classify()
	b := PairResult{Pair: pLL, TimePerIter: 3, AvgWatts: 4, EnergyPerIter: 12, Confidence: 1}
	b.Verdict = b.Classify()
	if err := j.Record("B", "x", 0, a); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("B", "x", 0, b); err != nil {
		t.Fatal(err)
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("journal has %d lines, want >= 3", len(lines))
	}
	// Corrupt the first cell line three different ways, keeping the rest.
	for i, garbage := range []string{
		"{\"kind\":\"cell\",\"board\":\x00\xff garbage\n",
		`{"kind":"cell","board":"B","bench":"x","pair":"(Z-9)","result":{}}` + "\n",
		`{"kind":"cell","board":"B","bench":"x","pair":"(H-H)","result":{"Pair":{}}}` + "\n",
	} {
		torn := append([]byte(nil), lines[0]...)
		torn = append(torn, []byte(garbage)...)
		torn = append(torn, bytes.Join(lines[2:], nil)...)
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		var warnings []string
		j2, err := OpenJournalCohort(path, JournalConfig{Cohort: cohort, Warn: collectWarn(&warnings)})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got, ok := j2.Lookup("B", "x", 0, pLL); !ok || got != b {
			t.Errorf("case %d: surviving cell lost (%+v, ok=%v)", i, got, ok)
		}
		if j2.Len() != 1 {
			t.Errorf("case %d: journal holds %d cells, want 1", i, j2.Len())
		}
		if joined := strings.Join(warnings, "\n"); !strings.Contains(joined, "skipping corrupt line") {
			t.Errorf("case %d: corruption skipped silently (%q)", i, joined)
		}
		j2.Close()
	}
}

// TestJournalRepairRoundTrips: a journal whose last line a crash tore is
// repaired on open; the repaired journal takes new cells, and its next
// open finds it intact and replays every cell.
func TestJournalRepairRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	cohort := testCohort(3, "")
	j, err := OpenJournalCohort(path, JournalConfig{Cohort: cohort})
	if err != nil {
		t.Fatal(err)
	}
	pMM, err := clock.ParsePair("(M-M)")
	if err != nil {
		t.Fatal(err)
	}
	pLH, err := clock.ParsePair("(L-H)")
	if err != nil {
		t.Fatal(err)
	}
	a := PairResult{Pair: pMM, TimePerIter: 1, AvgWatts: 1, EnergyPerIter: 1, Confidence: 1}
	a.Verdict = a.Classify()
	b := PairResult{Pair: pLH, TimePerIter: 2, AvgWatts: 3, EnergyPerIter: 6, Confidence: 1}
	b.Verdict = b.Classify()
	if err := j.Record("B", "x", 0, a); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := os.Chmod(path, 0o600); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"cell","board":"B","be`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var warnings []string
	j2, err := OpenJournalCohort(path, JournalConfig{Cohort: cohort, Warn: collectWarn(&warnings)})
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "skipping corrupt line 3") {
		t.Errorf("torn line not reported: %q", warnings)
	}
	if err := j2.Record("B", "x", 1, b); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("repair left its temporary file behind: %v", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o600 {
		t.Errorf("repaired journal's mode is %v, want the journal's 0600", st.Mode())
	}

	noRepair(t)
	j3, err := OpenJournalCohort(path, JournalConfig{Cohort: cohort})
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if got, ok := j3.Lookup("B", "x", 0, pMM); !ok || got != a {
		t.Errorf("repaired cell: %+v (ok=%v), want %+v", got, ok, a)
	}
	if got, ok := j3.Lookup("B", "x", 1, pLH); !ok || got != b {
		t.Errorf("cell recorded after the repair: %+v (ok=%v), want %+v", got, ok, b)
	}
	if j3.Len() != 2 {
		t.Errorf("journal holds %d cells, want 2", j3.Len())
	}
}

// FuzzJournalLoad: loading a journal with arbitrary corrupt interior
// lines must never error or panic — salvage is skip-and-warn, and
// whatever loads must survive a rewrite/reload cycle.
func FuzzJournalLoad(f *testing.F) {
	f.Add([]byte(`{"kind":"cell","board":"B","bench":"x"`))
	f.Add([]byte("\x00\x01\x02"))
	f.Add([]byte(`{"kind":"cell","board":"B","bench":"x","pair":"(H-H)","result":{"Pair":{"Core":2,"Mem":2}}}`))
	f.Add([]byte(`{"kind":"header","version":2,"seed":99}`))
	f.Add([]byte(`{"kind":"cell","pair":"(Z-Z)"}` + "\n" + `not json at all`))
	f.Fuzz(func(t *testing.T, interior []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "j")
		cohort := testCohort(1, "")
		j, err := OpenJournalCohort(path, JournalConfig{Cohort: cohort, Warn: func(string, ...any) {}})
		if err != nil {
			t.Fatal(err)
		}
		p, err := clock.ParsePair("(H-H)")
		if err != nil {
			t.Fatal(err)
		}
		cell := PairResult{Pair: p, TimePerIter: 1, AvgWatts: 1, EnergyPerIter: 1, Confidence: 1}
		cell.Verdict = cell.Classify()
		if err := j.Record("B", "x", 0, cell); err != nil {
			t.Fatal(err)
		}
		j.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cut := bytes.IndexByte(data, '\n') + 1 // keep the valid header
		torn := append(append([]byte(nil), data[:cut]...), interior...)
		torn = append(torn, '\n')
		torn = append(torn, data[cut:]...)
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		j2, err := OpenJournalCohort(path, JournalConfig{Cohort: cohort, Warn: func(string, ...any) {}})
		if err != nil {
			t.Fatalf("corrupt interior line aborted the load: %v", err)
		}
		if got, ok := j2.Lookup("B", "x", 0, p); !ok || got.Pair != p {
			t.Errorf("intact trailing cell lost to interior corruption (%+v, ok=%v)", got, ok)
		}
		j2.Close()
		// The salvaged journal must reload cleanly: an open that skipped
		// or re-decoded an injected line repaired the file, and one that
		// kept every line as written left it as it was.
		j3, err := OpenJournalCohort(path, JournalConfig{Cohort: cohort, Warn: func(string, ...any) {}})
		if err != nil {
			t.Fatalf("salvaged journal does not reload: %v", err)
		}
		j3.Close()
	})
}
