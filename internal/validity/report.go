package validity

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// ReportSchema versions the machine-readable triage report
// (reports/baseline.json). Bump on any field change.
const ReportSchema = 1

// CellReport is one cell's final verdict in the triage report.
type CellReport struct {
	Table     string  `json:"table"`
	Board     string  `json:"board"`
	Bench     string  `json:"bench"`
	Pair      string  `json:"pair"`
	Class     Class   `json:"class"`
	Reason    string  `json:"reason,omitempty"`
	Reps      int     `json:"reps"`
	ValidReps int     `json:"valid_reps"`
	Runs      []Run   `json:"runs"`
	Spread    float64 `json:"time_spread,omitempty"`
}

// TableReport is one table's provenance summary.
type TableReport struct {
	Cells       int      `json:"cells"`
	Publishable int      `json:"publishable"`
	Unstable    []string `json:"unstable,omitempty"` // "board/bench@pair" of non-VALID cells
}

// Report is the machine-readable triage artifact: verdict counts, the
// cohort identity, per-table provenance and every cell's judgement.
// Marshalling is deterministic — slices are sorted, and Go's JSON
// encoder renders map keys in sorted order.
type Report struct {
	Schema      int                    `json:"schema"`
	Cohort      Cohort                 `json:"cohort"`
	CohortHash  string                 `json:"cohort_hash"`
	Repetitions int                    `json:"repetitions"`
	MinValid    int                    `json:"min_valid"`
	Tolerance   float64                `json:"tolerance"`
	Counts      map[Class]int          `json:"verdicts"`
	RunCounts   map[Class]int          `json:"run_verdicts"`
	Tables      map[string]TableReport `json:"tables"`
	Cells       []CellReport           `json:"cells"`
}

// Finalize judges every accumulated cell and assembles the report.
//
//gpulint:deterministic
func (t *Triage) Finalize() *Report {
	t.mu.Lock()
	var keys []cellKey
	for g, pairs := range t.runs {
		for pair := range pairs {
			keys = append(keys, cellKey{g, pair})
		}
	}
	t.mu.Unlock()
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
		t.mu.Lock()
		runs := append([]Run(nil), t.runs[k.groupKey][k.Pair]...)
		t.mu.Unlock()
		sort.Slice(runs, func(a, b int) bool { return runs[a].Rep < runs[b].Rep })
		verdict, valid := t.judge(runs)
		times := make([]float64, 0, len(runs))
		for _, r := range runs {
			rep.RunCounts[r.Verdict.Class]++
			if r.Verdict.Class == Valid {
				times = append(times, r.Time)
			}
		}
		cell := CellReport{
			Table: k.Table, Board: k.Board, Bench: k.Bench, Pair: k.Pair,
			Class: verdict.Class, Reason: verdict.Reason,
			Reps: len(runs), ValidReps: valid, Runs: runs,
			Spread: spread(times),
		}
		rep.Cells = append(rep.Cells, cell)
		rep.Counts[verdict.Class]++
		tr := rep.Tables[k.Table]
		tr.Cells++
		if verdict.Class == Valid {
			tr.Publishable++
		} else {
			tr.Unstable = append(tr.Unstable,
				fmt.Sprintf("%s/%s@%s", k.Board, k.Bench, k.Pair))
		}
		rep.Tables[k.Table] = tr
	}
	return rep
}

// Publishable reports whether every cell of the report is VALID.
func (r *Report) Publishable() bool {
	return r.Counts[ModelFailure] == 0 && r.Counts[InfraFlake] == 0
}

// Summary renders the one-paragraph human form the text report embeds.
func (r *Report) Summary() string {
	total := len(r.Cells)
	return fmt.Sprintf("%s\nrepetitions %d, min valid %d, tolerance %.1f%%\ncells: %d VALID, %d MODEL_FAILURE, %d INFRA_FLAKE; %d/%d publishable",
		r.Cohort, r.Repetitions, r.MinValid, r.Tolerance*100,
		r.Counts[Valid], r.Counts[ModelFailure], r.Counts[InfraFlake],
		r.Counts[Valid], total)
}

// WriteJSON renders the report as deterministic, indented JSON.
//
//gpulint:deterministic
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path, creating parent directories —
// the `-triage-out reports/baseline.json` flag lands here.
func (r *Report) WriteFile(path string) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("validity: %w", err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("validity: %w", err)
	}
	if err := r.WriteJSON(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("validity: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("validity: %w", err)
	}
	return nil
}

// ReadReport parses a triage report and validates its structure:
// schema match, known classes, count/cell agreement, and a cohort hash
// consistent with the embedded cohort. cmd/triagecheck builds on this.
func ReadReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("validity: parsing report: %w", err)
	}
	if r.Schema != ReportSchema {
		return nil, fmt.Errorf("validity: report schema %d, want %d", r.Schema, ReportSchema)
	}
	if r.CohortHash == "" {
		return nil, fmt.Errorf("validity: report carries no cohort hash")
	}
	if got := r.Cohort.Hash(); got != r.CohortHash {
		return nil, fmt.Errorf("validity: cohort hash %s does not match embedded cohort (%s)", r.CohortHash, got)
	}
	counts := map[Class]int{Valid: 0, ModelFailure: 0, InfraFlake: 0}
	tables := map[string]int{}
	for _, c := range r.Cells {
		if !KnownClass(c.Class) {
			return nil, fmt.Errorf("validity: cell %s/%s@%s has unknown class %q", c.Board, c.Bench, c.Pair, c.Class)
		}
		counts[c.Class]++
		tables[c.Table]++
	}
	for _, cl := range Classes() {
		if counts[cl] != r.Counts[cl] {
			return nil, fmt.Errorf("validity: verdict count mismatch for %s: header says %d, cells hold %d",
				cl, r.Counts[cl], counts[cl])
		}
	}
	for name, tr := range r.Tables {
		if tables[name] != tr.Cells {
			return nil, fmt.Errorf("validity: table %q claims %d cells, report holds %d", name, tr.Cells, tables[name])
		}
	}
	return &r, nil
}
