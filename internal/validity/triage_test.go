package validity

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// flatTriage is a frozen copy of the triage's judging scans from when it
// kept one flat map of cells: BenchVerdict walked every cell key, and
// Finalize sorted all of them. Each cell is judged by t.judge.
type flatTriage struct {
	t    *Triage
	runs map[cellKey][]Run
}

func (f *flatTriage) benchVerdict(table, board, bench string) (Verdict, bool) {
	var keys []cellKey
	for k := range f.runs {
		if k.Table == table && k.Board == board && k.Bench == bench {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return Verdict{}, false
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].Pair < keys[b].Pair })
	out := Verdict{Class: Valid}
	for _, k := range keys {
		v, _ := f.t.judge(f.runs[k])
		if v.Class != Valid {
			return Verdict{Class: v.Class,
				Reason: fmt.Sprintf("pair %s: %s", k.Pair, v.Reason)}, true
		}
		if v.Reason != "" && out.Reason == "" {
			out.Reason = fmt.Sprintf("pair %s: %s", k.Pair, v.Reason)
		}
	}
	return out, true
}

func (f *flatTriage) finalize() *Report {
	t := f.t
	keys := make([]cellKey, 0, len(f.runs))
	for k := range f.runs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		ka, kb := keys[a], keys[b]
		if ka.Table != kb.Table {
			return ka.Table < kb.Table
		}
		if ka.Board != kb.Board {
			return ka.Board < kb.Board
		}
		if ka.Bench != kb.Bench {
			return ka.Bench < kb.Bench
		}
		return ka.Pair < kb.Pair
	})
	rep := &Report{
		Schema:      ReportSchema,
		Cohort:      t.cohort,
		CohortHash:  t.cohort.Hash(),
		Repetitions: t.repetitions,
		MinValid:    t.minValid,
		Tolerance:   t.tolerance,
		Counts:      map[Class]int{Valid: 0, ModelFailure: 0, InfraFlake: 0},
		RunCounts:   map[Class]int{Valid: 0, ModelFailure: 0, InfraFlake: 0},
		Tables:      map[string]TableReport{},
	}
	for _, k := range keys {
		runs := append([]Run(nil), f.runs[k]...)
		sort.Slice(runs, func(a, b int) bool { return runs[a].Rep < runs[b].Rep })
		verdict, valid := t.judge(runs)
		times := make([]float64, 0, len(runs))
		for _, r := range runs {
			rep.RunCounts[r.Verdict.Class]++
			if r.Verdict.Class == Valid {
				times = append(times, r.Time)
			}
		}
		rep.Cells = append(rep.Cells, CellReport{
			Table: k.Table, Board: k.Board, Bench: k.Bench, Pair: k.Pair,
			Class: verdict.Class, Reason: verdict.Reason,
			Reps: len(runs), ValidReps: valid, Runs: runs,
			Spread: spread(times),
		})
		rep.Counts[verdict.Class]++
		tr := rep.Tables[k.Table]
		tr.Cells++
		if verdict.Class == Valid {
			tr.Publishable++
		} else {
			tr.Unstable = append(tr.Unstable, fmt.Sprintf("%s/%s@%s", k.Board, k.Bench, k.Pair))
		}
		rep.Tables[k.Table] = tr
	}
	return rep
}

// TestTriageMatchesFlatScan: over randomized triages, every group's
// BenchVerdict, every CellVerdict and the finalized report's bytes are
// what the flat map's scans gave.
func TestTriageMatchesFlatScan(t *testing.T) {
	tables := []string{"fig1-3", "modeling", "table4"}
	boards := []string{"GTX 285", "GTX 480", "GTX 680#0007"}
	benches := []string{"backprop", "gaussian", "streamcluster"}
	pairs := []string{"(H-H)", "(H-L)", "(L-H)", "(L-L)", "(M-M)", "-"}
	reasons := []string{"", "retry budget exhausted at launch.hang after 3 attempts", "accepted with 2 interpolated samples (confidence 0.98)"}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reps := 1 + rng.Intn(3)
		tr := NewTriage(Cohort{Seed: seed}, reps, rng.Intn(reps+1), 0)
		flat := &flatTriage{t: tr, runs: map[cellKey][]Run{}}
		for n := rng.Intn(200); n > 0; n-- {
			k := cellKey{groupKey{tables[rng.Intn(len(tables))], boards[rng.Intn(len(boards))], benches[rng.Intn(len(benches))]},
				pairs[rng.Intn(len(pairs))]}
			class := Valid
			if rng.Intn(6) == 0 {
				class = InfraFlake
			}
			run := Run{
				Rep:     rng.Intn(reps + 1),
				Verdict: Verdict{Class: class, Reason: reasons[rng.Intn(len(reasons))]},
				Time:    1 + rng.Float64()*0.08,
				Watts:   100 + rng.Float64()*4,
				Energy:  100 + rng.Float64()*9,
			}
			if err := tr.Observe(k.Table, k.Board, k.Bench, k.Pair, run); err != nil {
				continue // a repeated (cell, rep): rejected, as the flat map rejected it
			}
			flat.runs[k] = append(flat.runs[k], run)
		}
		for _, table := range append(tables, "absent") {
			for _, board := range boards {
				for _, bench := range benches {
					got, gok := tr.BenchVerdict(table, board, bench)
					want, wok := flat.benchVerdict(table, board, bench)
					if got != want || gok != wok {
						t.Errorf("seed %d: BenchVerdict(%s, %s, %s) = %+v, %v; flat scan %+v, %v",
							seed, table, board, bench, got, gok, want, wok)
					}
					for _, pair := range pairs {
						got, gok := tr.CellVerdict(table, board, bench, pair)
						runs, wok := flat.runs[cellKey{groupKey{table, board, bench}, pair}]
						if gok != wok {
							t.Errorf("seed %d: CellVerdict(%s, %s, %s, %s) found=%v, flat map %v", seed, table, board, bench, pair, gok, wok)
						} else if want, _ := tr.judge(runs); wok && got != want {
							t.Errorf("seed %d: CellVerdict(%s, %s, %s, %s) = %+v, want %+v", seed, table, board, bench, pair, got, want)
						}
					}
				}
			}
		}
		var got, want bytes.Buffer
		if err := tr.Finalize().WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if err := flat.finalize().WriteJSON(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("seed %d: finalized report differs from the flat map's:\n%s\nwant:\n%s", seed, got.String(), want.String())
		}
	}
}
