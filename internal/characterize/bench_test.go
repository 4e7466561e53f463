package characterize

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gpuperf/internal/arch"
	"gpuperf/internal/validity"
	"gpuperf/internal/workloads"
)

// table4Cohort binds the benchmark journal: the four paper boards at
// seed 42.
var table4Cohort = validity.Cohort{Seed: 42, Boards: []string{"GTX 285", "GTX 460", "GTX 480", "GTX 680"}, CodeVersion: "bench"}

// table4Journal is the journal of a three-repetition Table IV cohort on
// the four paper boards, swept once per test binary by one worker: the
// 2,871 cells a resumed Table IV cohort opens.
var table4Journal = sync.OnceValues(func() ([]byte, error) {
	dir, err := os.MkdirTemp("", "table4-journal")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	path := filepath.Join(dir, "journal")
	j, err := OpenJournalCohort(path, JournalConfig{Cohort: table4Cohort})
	if err != nil {
		return nil, err
	}
	var boards []string
	for _, spec := range arch.AllBoards() {
		boards = append(boards, spec.Name)
	}
	_, err = SweepReps(context.Background(), boards, workloads.Table4(), SweepOptions{Seed: 42, Workers: 1, Journal: j}, 3)
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return os.ReadFile(path)
})

func benchJournal(b *testing.B) (data []byte, cells [][]byte) {
	b.Helper()
	data, err := table4Journal()
	if err != nil {
		b.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	return data, lines[1:]
}

// BenchmarkJournalOpen prices one open and close of the Table IV journal:
// /intact as Record left it, /repair with a torn last line, which the
// open skips and repairs away (the journal is restored outside the
// timer before each open).
func BenchmarkJournalOpen(b *testing.B) {
	data, _ := benchJournal(b)
	torn := append(append([]byte(nil), data...), `{"kind":"cell","board":"GTX 480","ben`...)
	for _, c := range []struct {
		name string
		data []byte
	}{{"intact", data}, {"repair", torn}} {
		b.Run(c.name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "journal")
			cfg := JournalConfig{Cohort: table4Cohort, Warn: func(string, ...any) {}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i == 0 || c.name == "repair" {
					b.StopTimer()
					if err := os.WriteFile(path, c.data, 0o644); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				j, err := OpenJournalCohort(path, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if j.Len() != len(bytes.Split(data, []byte("\n")))-2 {
					b.Fatalf("journal holds %d cells", j.Len())
				}
				if err := j.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeCell prices decoding one cell line of the Table IV
// journal, cycling through all of them: /fast on the hand-written
// decoder, /encoding-json through reflection.
func BenchmarkDecodeCell(b *testing.B) {
	_, lines := benchJournal(b)
	b.Run("fast", func(b *testing.B) {
		var dec cellDecoder
		var c journalCell
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !dec.decode(lines[i%len(lines)], &c) {
				b.Fatalf("line misses the fast path: %s", lines[i%len(lines)])
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var c journalCell
			if err := json.Unmarshal(lines[i%len(lines)], &c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkJournalRecord prices one Record of a Table IV cell: the map
// store, the line's encoding and its unbuffered write. The journal is
// started afresh, outside the timer, after every cohort's worth of cells.
func BenchmarkJournalRecord(b *testing.B) {
	_, lines := benchJournal(b)
	cells := make([]journalCell, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal(line, &cells[i]); err != nil {
			b.Fatal(err)
		}
	}
	path := filepath.Join(b.TempDir(), "journal")
	var j *Journal
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%len(cells) == 0 {
			b.StopTimer()
			if j != nil {
				if err := j.Close(); err != nil {
					b.Fatal(err)
				}
			}
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				b.Fatal(err)
			}
			var err error
			if j, err = OpenJournalCohort(path, JournalConfig{Cohort: table4Cohort}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		c := &cells[i%len(cells)]
		if err := j.Record(c.Board, c.Bench, c.Rep, c.Result); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
}
