package characterize

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"gpuperf/internal/clock"
	"gpuperf/internal/validity"
)

// frozenRewrite is a frozen copy of the open that rewrote every journal
// in place: it loaded the whole file through encoding/json and wrote the
// header plus every kept cell sorted by (board, bench, rep, pair). It
// returns the bytes that open left at the journal's path, or nil where
// it kept nothing (a stale, foreign or mismatched journal).
func frozenRewrite(t *testing.T, data []byte, c validity.Cohort) []byte {
	t.Helper()
	cells := map[string]PairResult{}
	first, migrate := true, false
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		if first {
			first = false
			var h journalHeader
			if json.Unmarshal(line, &h) != nil || h.Kind != "header" {
				return nil
			}
			switch h.Version {
			case journalVersion:
				if !h.cohort().Equal(c) {
					return nil
				}
			case journalVersionLegacy:
				if h.Seed != c.Seed || h.Profile != c.Profile {
					return nil
				}
				migrate = true
			default:
				return nil
			}
			continue
		}
		var jc journalCell
		if json.Unmarshal(line, &jc) != nil || jc.Kind != "cell" {
			continue
		}
		if _, err := clock.ParsePair(jc.Pair); err != nil || jc.Result.Pair.String() != jc.Pair || jc.Rep < 0 {
			continue
		}
		if migrate || !validity.KnownClass(jc.Result.Verdict.Class) {
			jc.Result.Verdict = jc.Result.Classify()
		}
		key := jc.Board + "|" + jc.Bench + "|" + jc.Result.Pair.String()
		if jc.Rep > 0 {
			key += "|rep" + strconv.Itoa(jc.Rep)
		}
		cells[key] = jc.Result
	}
	out := make([]journalCell, 0, len(cells))
	for k, r := range cells {
		parts := strings.SplitN(k, "|", 4)
		rep := 0
		if len(parts) == 4 {
			rep, _ = strconv.Atoi(strings.TrimPrefix(parts[3], "rep"))
		}
		out = append(out, journalCell{Kind: "cell", Board: parts[0], Bench: parts[1], Pair: r.Pair.String(), Rep: rep, Result: r})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Board != out[b].Board {
			return out[a].Board < out[b].Board
		}
		if out[a].Bench != out[b].Bench {
			return out[a].Bench < out[b].Bench
		}
		if out[a].Rep != out[b].Rep {
			return out[a].Rep < out[b].Rep
		}
		return out[a].Pair < out[b].Pair
	})
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(journalHeader{
		Kind: "header", Version: journalVersion,
		Seed: c.Seed, Profile: c.Profile,
		Boards: c.Boards, CodeVersion: c.CodeVersion, Cohort: c.Hash(),
	}); err != nil {
		t.Fatal(err)
	}
	for _, l := range out {
		if err := enc.Encode(l); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// setRepairWriter swaps the repair's write seam for the test's duration.
func setRepairWriter(t *testing.T, wrap func(*os.File) io.Writer) {
	t.Helper()
	old := repairWriter
	repairWriter = wrap
	t.Cleanup(func() { repairWriter = old })
}

// noRepair makes any repair write for the rest of the test an error.
func noRepair(t *testing.T) {
	t.Helper()
	setRepairWriter(t, func(f *os.File) io.Writer {
		t.Errorf("journal %s was repaired", f.Name())
		return f
	})
}

var errInjected = errors.New("injected write failure")

// failAfter passes n bytes through to w and fails every write after them.
type failAfter struct {
	w io.Writer
	n int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) <= f.n {
		f.n -= len(p)
		return f.w.Write(p)
	}
	n, err := f.w.Write(p[:f.n])
	f.n = 0
	if err != nil {
		return n, err
	}
	return n, errInjected
}

// sampleJournal is a journal as Record writes it: a header and cells in
// recording order, which is not the repair's sorted order. It holds a
// clean, a quarantined, an interpolated and a reason-carrying cell over
// two repetitions.
func sampleJournal(t *testing.T, c validity.Cohort) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sample")
	j, err := OpenJournalCohort(path, JournalConfig{Cohort: c})
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range sampleCells(t) {
		if err := j.Record(cell.Board, cell.Bench, cell.Rep, cell.Result); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sampleCells are classified cells of every kind a sweep records.
func sampleCells(t testing.TB) []journalCell {
	t.Helper()
	pair := func(s string) clock.Pair {
		p, err := clock.ParsePair(s)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	results := []PairResult{
		{Pair: pair("(H-H)"), TimePerIter: 0.0123456789012345, AvgWatts: 187.25, EnergyPerIter: 2.311728395061729, Confidence: 1},
		{Pair: pair("(H-L)"), Quarantined: true, FailPoint: "launch.hang", Retries: 5},
		{Pair: pair("(L-L)"), TimePerIter: 3.3e-7, AvgWatts: 90.5, EnergyPerIter: 2.9865e-5, Confidence: 0.95, Interpolated: 3, Retries: 1},
		{Pair: pair("(M-H)"), TimePerIter: 1e21, AvgWatts: 1e-7, EnergyPerIter: 123456789, Confidence: 0.5, Interpolated: 40},
	}
	var out []journalCell
	for rep := 1; rep >= 0; rep-- {
		for i := len(results) - 1; i >= 0; i-- {
			r := results[i]
			r.Verdict = r.Classify()
			out = append(out, journalCell{Kind: "cell", Board: "GTX 480", Bench: "backprop", Pair: r.Pair.String(), Rep: rep, Result: r})
		}
	}
	return out
}

// TestJournalOpenIntactWritesNothing: opening and closing an intact
// journal leaves the same file with the same bytes and no write, keeps
// its recorded order, and appends the next cell after its last line.
func TestJournalOpenIntactWritesNothing(t *testing.T) {
	cohort := testCohort(42, "launch.hang:0.1")
	data := sampleJournal(t, cohort)
	path := filepath.Join(t.TempDir(), "j")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	noRepair(t)
	j, err := OpenJournalCohort(path, JournalConfig{Cohort: cohort})
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != len(sampleCells(t)) {
		t.Errorf("journal holds %d cells, want %d", j.Len(), len(sampleCells(t)))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) || !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Errorf("intact journal was replaced or written: %v %d → %v %d",
			before.ModTime(), before.Size(), after.ModTime(), after.Size())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("intact journal changed on open:\n%s\nwant:\n%s", got, data)
	}
	// The rewrite sorted; an intact journal keeps its recorded order and
	// otherwise the same lines.
	if sortedLines(got) != sortedLines(frozenRewrite(t, data, cohort)) {
		t.Errorf("intact journal's lines differ from the rewrite's:\n%s\nrewrite:\n%s", got, frozenRewrite(t, data, cohort))
	}

	j, err = OpenJournalCohort(path, JournalConfig{Cohort: cohort})
	if err != nil {
		t.Fatal(err)
	}
	extra := PairResult{Pair: clock.DefaultPair(), TimePerIter: 1, AvgWatts: 2, EnergyPerIter: 2, Confidence: 1}
	extra.Verdict = extra.Classify()
	if err := j.Record("GTX 480", "gaussian", 0, extra); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(journalCell{Kind: "cell", Board: "GTX 480", Bench: "gaussian", Pair: extra.Pair.String(), Result: extra})
	if err != nil {
		t.Fatal(err)
	}
	got, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(append(append([]byte(nil), data...), line...), '\n'); !bytes.Equal(got, want) {
		t.Errorf("record after an intact open did not append:\n%s", got)
	}
}

func sortedLines(data []byte) string {
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestJournalRepairMatchesFrozenRewrite: every journal that is not
// intact becomes exactly the bytes the in-place rewrite wrote, after
// which each of its lines is what Record writes and the next open finds
// it intact.
func TestJournalRepairMatchesFrozenRewrite(t *testing.T) {
	cohort := testCohort(42, "launch.hang:0.1")
	data := sampleJournal(t, cohort)
	nl := bytes.IndexByte(data, '\n') + 1
	header, body := data[:nl], data[nl:]
	cellLines := bytes.SplitAfter(body, []byte("\n"))
	cellLines = cellLines[:len(cellLines)-1]
	replaceFirst := func(old, new string) []byte {
		if !bytes.Contains(body, []byte(old)) {
			t.Fatalf("sample journal has no %q", old)
		}
		return append(append([]byte(nil), header...), bytes.Replace(body, []byte(old), []byte(new), 1)...)
	}
	var legacy bytes.Buffer
	if err := json.NewEncoder(&legacy).Encode(journalHeader{Kind: "header", Version: journalVersionLegacy, Seed: 42, Profile: "launch.hang:0.1"}); err != nil {
		t.Fatal(err)
	}
	for _, line := range cellLines {
		var c journalCell
		if err := json.Unmarshal(line, &c); err != nil {
			t.Fatal(err)
		}
		c.Result.Verdict = validity.Verdict{}
		if err := json.NewEncoder(&legacy).Encode(c); err != nil {
			t.Fatal(err)
		}
	}

	cases := map[string][]byte{
		"torn last line":        append(append([]byte(nil), data...), `{"kind":"cell","board":"GTX 480","ben`...),
		"no final newline":      data[:len(data)-1],
		"blank interior line":   append(append(append([]byte(nil), header...), '\n'), body...),
		"corrupt interior line": append(append(append([]byte(nil), header...), "{\"kind\":\"cell\",\x00\xff\n"...), body...),
		"bad pair":              replaceFirst(`"pair":"(H-H)"`, `"pair":"(Z-9)"`),
		"pair key mismatch":     replaceFirst(`"pair":"(H-H)"`, `"pair":"(L-M)"`),
		"negative rep":          replaceFirst(`"rep":1,`, `"rep":-1,`),
		"duplicate cell":        append(append([]byte(nil), data...), bytes.Replace(cellLines[3], []byte(`"AvgWatts":`), []byte(`"AvgWatts":1`), 1)...),
		"unknown class":         replaceFirst(`"class":"VALID"`, `"class":"MAYBE"`),
		"non-canonical float":   replaceFirst(`"AvgWatts":187.25`, `"AvgWatts":187.250`),
		"spaced line":           replaceFirst(`"board":"GTX 480","bench"`, `"board": "GTX 480", "bench"`),
		"escaped string":        replaceFirst(`"board":"GTX 480"`, `"board":"\u0047TX 480"`),
		"reordered keys":        replaceFirst(`{"kind":"cell","board":"GTX 480"`, `{"board":"GTX 480","kind":"cell"`),
		"spaced header":         append([]byte(strings.Replace(string(header), `"kind":"header"`, `"kind": "header"`, 1)), body...),
		"header only, torn":     header[:len(header)-1],
		"empty file":            {},
		"legacy journal":        legacy.Bytes(),
	}
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			in := cases[name]
			want := frozenRewrite(t, in, cohort)
			if want == nil {
				t.Fatal("the frozen rewrite keeps nothing of this journal")
			}
			path := filepath.Join(t.TempDir(), "j")
			if err := os.WriteFile(path, in, 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := OpenJournalCohort(path, JournalConfig{Cohort: cohort, Warn: func(string, ...any) {}})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("repaired journal:\n%s\nfrozen rewrite:\n%s", got, want)
			}
			var dec cellDecoder
			var c journalCell
			for i, line := range bytes.Split(bytes.TrimSuffix(got, []byte("\n")), []byte("\n"))[1:] {
				if !dec.decode(line, &c) {
					t.Errorf("repaired line %d misses the fast path: %s", i+2, line)
				}
			}
			noRepair(t)
			j, err = OpenJournalCohort(path, JournalConfig{Cohort: cohort})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestJournalRepairIsCrashSafe fails the repair's temporary-file write
// after k bytes, for every k. Each time the original journal is still at
// its path byte for byte and holds all its cells, and a temporary file a
// crash left behind is never read: the next open repairs from the
// journal and replaces it.
func TestJournalRepairIsCrashSafe(t *testing.T) {
	cohort := testCohort(7, "")
	data := sampleJournal(t, cohort)
	data = append(data, `{"kind":"cell","bo`...) // torn: the open must repair
	want := frozenRewrite(t, data, cohort)
	cells := len(sampleCells(t))
	dir := t.TempDir()
	path := filepath.Join(dir, "j")
	cfg := JournalConfig{Cohort: cohort, Warn: func(string, ...any) {}}
	limit := -1 // bytes the repair may write; -1: no limit
	setRepairWriter(t, func(f *os.File) io.Writer {
		if limit < 0 {
			return f
		}
		return &failAfter{w: f, n: limit}
	})
	for k := 0; k < len(want); k++ {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		limit = k
		if j, err := OpenJournalCohort(path, cfg); !errors.Is(err, errInjected) {
			if err == nil {
				j.Close()
			}
			t.Fatalf("k=%d: open with a failing repair: err=%v, want the injected failure", k, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("k=%d: a failed repair changed the journal", k)
		}
		if recs, err := ReadJournalCells(path, cfg); err != nil || len(recs) != cells {
			t.Fatalf("k=%d: journal after a failed repair holds %d cells (err=%v), want %d", k, len(recs), err, cells)
		}

		// What a crash at byte k leaves: the journal and a temporary
		// file holding the repair's first k bytes.
		if err := os.WriteFile(path+".tmp", want[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		limit = -1
		j, err := OpenJournalCohort(path, cfg)
		if err != nil {
			t.Fatalf("k=%d: reopen: %v", k, err)
		}
		if j.Len() != cells {
			t.Errorf("k=%d: reopened journal holds %d cells, want %d", k, j.Len(), cells)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("k=%d: reopened journal is not the repair (err=%v):\n%s", k, err, got)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("k=%d: temporary file survived the repair: %v", k, err)
		}
	}
}
