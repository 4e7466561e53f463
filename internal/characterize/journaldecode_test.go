package characterize

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gpuperf/internal/validity"
)

// checkDecode asserts that the fast path and encoding/json agree on line
// wherever the fast path accepts it, and that what it accepts is exactly
// the line json.Marshal writes for the decoded cell. It reports whether
// the fast path accepted the line.
func checkDecode(t *testing.T, dec *cellDecoder, line []byte) bool {
	t.Helper()
	var fast journalCell
	if !dec.decode(line, &fast) {
		return false
	}
	var slow journalCell
	if err := json.Unmarshal(line, &slow); err != nil {
		t.Fatalf("fast path accepted a line encoding/json rejects (%v): %q", err, line)
	}
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("decoders disagree on %q:\nfast %+v\njson %+v", line, fast, slow)
	}
	canon, err := json.Marshal(fast)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon, line) {
		t.Fatalf("fast path accepted a line json.Marshal does not write:\n%s\nmarshal:\n%s", line, canon)
	}
	return true
}

// TestDecodeCellTakesMarshalledLines: every line json.Marshal writes for
// a cell whose strings need no escape takes the fast path and decodes as
// encoding/json decodes it; a line with an escaped string falls back.
func TestDecodeCellTakesMarshalledLines(t *testing.T) {
	var dec cellDecoder
	cells := sampleCells(t)
	for _, f := range []float64{0, math.Copysign(0, -1), -1.5, 1e-6, 9.99e-7, 1e20, 1e21, 5e-324, math.MaxFloat64, 0.1, 1.0 / 3} {
		c := cells[0]
		c.Result.TimePerIter, c.Result.AvgWatts, c.Result.EnergyPerIter = f, -f, f/2
		cells = append(cells, c)
	}
	for _, name := range []string{"Radeon HD 7970", "GTX 680 \u2713", "device#00017", "tab\x7fdel"} {
		c := cells[0]
		c.Board, c.Rep, c.Result.Retries, c.Result.Interpolated = name, 7, -2, 1<<40
		c.Result.Verdict = validity.Verdict{Class: validity.ModelFailure, Reason: "spread 7.1% over 3 reps"}
		cells = append(cells, c)
	}
	for _, c := range cells {
		line, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if !checkDecode(t, &dec, line) {
			t.Errorf("marshalled cell misses the fast path: %s", line)
		}
	}
	for _, name := range []string{"a<b", "a&b", "quote\"d", "back\\slash", "new\nline", "sep\u2028", "bad\xffutf8"} {
		c := cells[0]
		c.Board = name
		line, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if checkDecode(t, &dec, line) {
			t.Errorf("escaped string took the fast path: %s", line)
		}
	}
	// Characters json.Marshal escapes but encoding/json reads raw: such a
	// line decodes, but not on the fast path, whose lines are Marshal's.
	for _, raw := range []string{"<", ">", "&", "\u2028", "\u2029"} {
		line := bytes.Replace(mustMarshal(t, cells[0]), []byte(`"board":"`), []byte(`"board":"`+raw), 1)
		var c journalCell
		if err := json.Unmarshal(line, &c); err != nil {
			t.Fatalf("%q: %v", raw, err)
		}
		if checkDecode(t, &dec, line) {
			t.Errorf("raw %q took the fast path: %s", raw, line)
		}
	}
}

func mustMarshal(t testing.TB, c journalCell) []byte {
	t.Helper()
	line, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// TestDecodeCellAgreesOnFaultedJournal: every cell line a faulted,
// repeated campaign journals takes the fast path and decodes as
// encoding/json decodes it.
func TestDecodeCellAgreesOnFaultedJournal(t *testing.T) {
	const prof = "boot.fail:0.1,launch.hang:0.3,meter.drop:0.02,meter.stuck:0.05:400"
	path := filepath.Join(t.TempDir(), "faulted.journal")
	j, err := openBareJournal(path, 42, prof)
	if err != nil {
		t.Fatal(err)
	}
	res := chaosRes(t, prof, 3)
	res.MaxRetries = 1
	for rep := 0; rep < 2; rep++ {
		sweepBoard(t, "GTX 680", benchSubset(t), SweepOptions{Seed: RepSeed(42, rep), Rep: rep, Workers: 2, Res: res, Journal: j})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))[1:]
	var dec cellDecoder
	var quarantined, interpolated, reasons int
	for _, line := range lines {
		if !checkDecode(t, &dec, line) {
			t.Errorf("journaled line misses the fast path: %s", line)
		}
		quarantined += bytes.Count(line, []byte(`"Quarantined":true`))
		interpolated += bytes.Count(line, []byte(`"Interpolated":`))
		reasons += bytes.Count(line, []byte(`"reason":`))
	}
	if quarantined == 0 || interpolated == 0 || reasons == 0 {
		t.Errorf("faulted journal lacks a cell kind: %d quarantined, %d interpolated, %d with reasons over %d lines",
			quarantined, interpolated, reasons, len(lines))
	}
}

// FuzzDecodeCell: wherever the fast path accepts a line, encoding/json
// accepts it too and decodes the same cell, and the line is exactly what
// json.Marshal writes for that cell.
func FuzzDecodeCell(f *testing.F) {
	var clean []byte
	for _, c := range sampleCells(f) {
		line, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		if c.Rep == 0 && c.Result.Confidence == 1 {
			clean = line
		}
		f.Add(line)
	}
	// Characters json.Marshal escapes and encoding/json reads raw.
	for _, raw := range []string{"<", "&", "\u2028"} {
		f.Add(bytes.Replace(clean, []byte(`"board":"`), []byte(`"board":"`+raw), 1))
	}
	// Number forms strconv.ParseFloat accepts and JSON does not.
	for _, num := range []string{"1.", ".5", "01", "+1", "1e", "-", "1_0", "0x1p-2", "Inf", "1E5", "-0"} {
		f.Add(bytes.Replace(clean, []byte(`"TimePerIter":0.0123456789012345`), []byte(`"TimePerIter":`+num), 1))
		f.Add(bytes.Replace(clean, []byte(`"Core":2`), []byte(`"Core":`+num), 1))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var dec cellDecoder
		checkDecode(t, &dec, line)
	})
}
