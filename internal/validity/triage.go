package validity

import (
	"fmt"
	"sort"
	"sync"
)

// DefaultTolerance is the cross-repetition agreement ceiling: the
// relative spread ((max−min)/median) each measured scalar of a cell may
// show across its valid repetitions before the cell is a MODEL_FAILURE.
const DefaultTolerance = 0.05

// Run is one repetition's measurement of one cell, as the triage engine
// sees it: the run verdict the resilient sweep already attached plus the
// scalars the agreement check compares.
type Run struct {
	Rep     int     `json:"rep"`
	Verdict Verdict `json:"verdict"`
	// The measured scalars (zero for quarantined runs).
	Time   float64 `json:"time,omitempty"`
	Watts  float64 `json:"watts,omitempty"`
	Energy float64 `json:"energy,omitempty"`
	// Retries and Confidence make the report traceable without the
	// journal at hand.
	Retries    int     `json:"retries,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
}

// groupKey addresses one benchmark's cells on one board within one
// table's provenance: the group BenchVerdict judges.
type groupKey struct {
	Table, Board, Bench string
}

// cellKey addresses one measured cell.
type cellKey struct {
	groupKey
	Pair string
}

// Triage accumulates runs across repetitions and tables and judges
// them. Safe for concurrent Observe calls; the judging methods are pure
// functions of the accumulated state.
type Triage struct {
	cohort      Cohort
	repetitions int
	minValid    int
	tolerance   float64

	mu   sync.Mutex
	runs map[groupKey]map[string][]Run // by group, then by pair
}

// NewTriage builds a triage engine for one cohort. repetitions is the
// campaign's planned repetition count (≥1); minValid ≤ repetitions is
// the publishability floor (0 means every repetition must be valid);
// tolerance ≤ 0 selects DefaultTolerance.
func NewTriage(cohort Cohort, repetitions, minValid int, tolerance float64) *Triage {
	if repetitions < 1 {
		repetitions = 1
	}
	if minValid <= 0 || minValid > repetitions {
		minValid = repetitions
	}
	if tolerance <= 0 {
		tolerance = DefaultTolerance
	}
	return &Triage{
		cohort:      cohort,
		repetitions: repetitions,
		minValid:    minValid,
		tolerance:   tolerance,
		runs:        map[groupKey]map[string][]Run{},
	}
}

// Cohort returns the triage engine's campaign identity.
func (t *Triage) Cohort() Cohort { return t.cohort }

// MinValid returns the publishability floor in valid repetitions.
func (t *Triage) MinValid() int { return t.minValid }

// Observe records one repetition's run of one cell. table names the
// provenance group ("table4", "fig1-3", "modeling"); duplicate
// (table, board, bench, pair, rep) observations are rejected — feeding
// the same sweep twice would double-count repetitions.
func (t *Triage) Observe(table, board, bench, pair string, run Run) error {
	if !KnownClass(run.Verdict.Class) {
		return fmt.Errorf("validity: unclassified run for %s/%s/%s@%s rep %d",
			table, board, bench, pair, run.Rep)
	}
	g := groupKey{Table: table, Board: board, Bench: bench}
	t.mu.Lock()
	defer t.mu.Unlock()
	pairs := t.runs[g]
	for _, r := range pairs[pair] {
		if r.Rep == run.Rep {
			return fmt.Errorf("validity: duplicate observation for %s/%s/%s@%s rep %d",
				table, board, bench, pair, run.Rep)
		}
	}
	if pairs == nil {
		pairs = map[string][]Run{}
		t.runs[g] = pairs
	}
	pairs[pair] = append(pairs[pair], run)
	return nil
}

// spread is the deterministic agreement metric: (max−min)/|median| over
// the values, 0 when fewer than two values or the median is 0.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]
	if len(sorted)%2 == 0 {
		median = (sorted[len(sorted)/2-1] + sorted[len(sorted)/2]) / 2
	}
	if median == 0 {
		return 0
	}
	span := sorted[len(sorted)-1] - sorted[0]
	if span < 0 {
		span = -span
	}
	if median < 0 {
		median = -median
	}
	return span / median
}

// judge computes one cell's verdict from its accumulated runs:
//
//   - fewer than MinValid valid runs → INFRA_FLAKE, blaming the
//     dominant flake reason (or under-repetition when nothing flaked);
//   - ≥2 valid runs whose time/power/energy spread exceeds the
//     tolerance → MODEL_FAILURE naming the offending metric;
//   - otherwise → VALID, noting surviving flakes when some repetitions
//     were lost but the floor still held.
//
// The floor is capped at the cell's observed run count: tables measured
// once per campaign (the modeling set) are judged on the one run they
// could show, not held to the sweep tables' repetition plan.
func (t *Triage) judge(runs []Run) (Verdict, int) {
	sorted := append([]Run(nil), runs...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Rep < sorted[b].Rep })

	var valid []Run
	var firstFlake *Run
	flakes := 0
	for i := range sorted {
		switch sorted[i].Verdict.Class {
		case Valid:
			valid = append(valid, sorted[i])
		default:
			flakes++
			if firstFlake == nil {
				firstFlake = &sorted[i]
			}
		}
	}
	floor := t.minValid
	if len(sorted) < floor {
		floor = len(sorted)
	}
	if len(valid) < floor {
		if firstFlake != nil {
			reason := firstFlake.Verdict.Reason
			if reason == "" {
				reason = string(firstFlake.Verdict.Class)
			}
			return Verdict{Class: InfraFlake,
				Reason: fmt.Sprintf("%d/%d repetitions valid (min %d): %s",
					len(valid), len(sorted), t.minValid, reason)}, len(valid)
		}
		return Verdict{Class: InfraFlake,
			Reason: fmt.Sprintf("only %d/%d repetitions observed (min %d)",
				len(valid), len(sorted), t.minValid)}, len(valid)
	}
	for _, m := range [...]struct {
		name string
		get  func(Run) float64
	}{
		{"time", func(r Run) float64 { return r.Time }},
		{"power", func(r Run) float64 { return r.Watts }},
		{"energy", func(r Run) float64 { return r.Energy }},
	} {
		values := make([]float64, len(valid))
		for i, r := range valid {
			values[i] = m.get(r)
		}
		if s := spread(values); s > t.tolerance {
			return Verdict{Class: ModelFailure,
				Reason: fmt.Sprintf("cross-repetition disagreement: %s spread %.1f%% exceeds %.1f%% over %d valid repetitions",
					m.name, s*100, t.tolerance*100, len(valid))}, len(valid)
		}
	}
	if flakes > 0 {
		return Verdict{Class: Valid,
			Reason: fmt.Sprintf("%d/%d repetitions valid (%d infra flakes tolerated)",
				len(valid), len(sorted), flakes)}, len(valid)
	}
	return Verdict{Class: Valid}, len(valid)
}

// ObserveModeling feeds one board's modeling collection into the triage
// engine under the "modeling" provenance table: dropped maps each
// benchmark whose retry budget was exhausted to its flake reason, and
// every other benchmark in benches is a VALID single run. The modeling
// collection runs once per campaign, so each cell is one rep-0 run under
// the synthetic pair "-" (judge caps the floor at the observed count).
func ObserveModeling(t *Triage, board string, benches []string, dropped map[string]string) error {
	for _, b := range benches {
		run := Run{Verdict: Verdict{Class: Valid}}
		if reason, ok := dropped[b]; ok {
			run.Verdict = Verdict{Class: InfraFlake, Reason: reason}
		}
		if err := t.Observe("modeling", board, b, "-", run); err != nil {
			return err
		}
	}
	return nil
}

// CellVerdict judges one cell on demand — the verdict Table IV's
// renderer consults before printing a best pair.
func (t *Triage) CellVerdict(table, board, bench, pair string) (Verdict, bool) {
	t.mu.Lock()
	runs := t.runs[groupKey{Table: table, Board: board, Bench: bench}][pair]
	t.mu.Unlock()
	if len(runs) == 0 {
		return Verdict{}, false
	}
	v, _ := t.judge(runs)
	return v, true
}

// BenchVerdict aggregates one (table, board, bench) group over its
// pairs: the group is VALID only when every pair cell is VALID — a
// best-pair claim is indefensible when any candidate pair went
// unmeasured. A non-valid group reports the first offending pair's
// verdict (pairs in lexical order).
func (t *Triage) BenchVerdict(table, board, bench string) (Verdict, bool) {
	type cell struct {
		pair string
		runs []Run
	}
	t.mu.Lock()
	group := t.runs[groupKey{Table: table, Board: board, Bench: bench}]
	cells := make([]cell, 0, len(group))
	for pair, runs := range group {
		cells = append(cells, cell{pair, runs})
	}
	t.mu.Unlock()
	if len(cells) == 0 {
		return Verdict{}, false
	}
	sort.Slice(cells, func(a, b int) bool { return cells[a].pair < cells[b].pair })
	out := Verdict{Class: Valid}
	for _, c := range cells {
		v, _ := t.judge(c.runs)
		if v.Class != Valid {
			return Verdict{Class: v.Class,
				Reason: fmt.Sprintf("pair %s: %s", c.pair, v.Reason)}, true
		}
		if v.Reason != "" && out.Reason == "" {
			out.Reason = fmt.Sprintf("pair %s: %s", c.pair, v.Reason)
		}
	}
	return out, true
}
