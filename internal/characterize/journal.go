package characterize

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"gpuperf/internal/clock"
	"gpuperf/internal/validity"
)

// The checkpoint journal persists completed sweep cells as JSON lines so a
// crashed or killed campaign resumes where it stopped instead of repaying
// hours of sweeping. The first line is a header binding the journal to its
// campaign cohort — seed, board set, canonical fault profile and code
// version (validity.Cohort). Cells recorded under a different cohort would
// silently change the results, so a cohort mismatch against a current
// (v2) journal is a hard error: the journal is preserved on disk and the
// caller must either restore the configuration or point the campaign at a
// different checkpoint path. Legacy (v1) journals carry only (seed,
// profile): a matching one is migrated in place, a mismatched or
// unparseable one is backed up to <path>.stale — never silently
// truncated — and the campaign starts fresh.
//
// Because every cell's noise stream is scoped to the cell (SeedScoped), a
// resumed run is byte-identical to an uninterrupted one — the journal
// replays exactly what the sweep would have measured.

// journalVersion guards the on-disk format. v2 binds the full campaign
// cohort and stamps every cell with its repetition index; v1 (seed,
// profile only) is migrated on open.
const (
	journalVersion       = 2
	journalVersionLegacy = 1
)

type journalHeader struct {
	Kind    string `json:"kind"` // "header"
	Version int    `json:"version"`
	Seed    int64  `json:"seed"`
	Profile string `json:"profile"` // canonical fault-profile spec
	// v2 fields: the rest of the cohort identity plus its hash, so a
	// mismatch can be reported precisely and external tools can read the
	// binding without replaying the campaign.
	Boards      []string `json:"boards,omitempty"`
	CodeVersion string   `json:"code_version,omitempty"`
	Cohort      string   `json:"cohort,omitempty"` // validity.Cohort.Hash()
}

func (h journalHeader) cohort() validity.Cohort {
	return validity.Cohort{Seed: h.Seed, Boards: h.Boards, Profile: h.Profile, CodeVersion: h.CodeVersion}
}

type journalCell struct {
	Kind   string     `json:"kind"` // "cell"
	Board  string     `json:"board"`
	Bench  string     `json:"bench"`
	Pair   string     `json:"pair"`
	Rep    int        `json:"rep,omitempty"`
	Result PairResult `json:"result"`
}

// JournalConfig configures how a checkpoint journal is opened.
type JournalConfig struct {
	// Cohort is the campaign identity the journal is bound to.
	Cohort validity.Cohort
	// FsyncHeader forces an fsync after the header and replayed cells are
	// rewritten on open, so a crash in the first sweep cell cannot leave
	// a headerless (and therefore unresumable) file behind.
	FsyncHeader bool
	// Warn receives human-readable salvage notes — corrupt lines skipped,
	// stale journals backed up, v1 journals migrated. nil logs to stderr.
	Warn func(format string, args ...any)
}

func (c JournalConfig) warn(format string, args ...any) {
	if c.Warn != nil {
		c.Warn(format, args...)
		return
	}
	fmt.Fprintf(os.Stderr, "characterize: checkpoint: "+format+"\n", args...)
}

// CohortMismatchError reports a checkpoint journal bound to a different
// campaign cohort. The journal file is left untouched: resuming under a
// changed configuration would silently change published results, so the
// caller must restore the original configuration, choose a different
// -checkpoint path, or delete the journal deliberately.
type CohortMismatchError struct {
	Path string
	Old  validity.Cohort // the journal's cohort
	New  validity.Cohort // the campaign's cohort
}

func (e *CohortMismatchError) Error() string {
	return fmt.Sprintf("characterize: checkpoint %s belongs to %s, campaign is %s; restore the configuration, pick another checkpoint path, or delete the journal",
		e.Path, e.Old, e.New)
}

// Journal is an append-only checkpoint of completed (board, benchmark,
// pair, repetition) cells. Safe for concurrent use by sweep workers.
type Journal struct {
	mu    sync.Mutex
	f     *os.File
	cells map[string]PairResult
	hits  int
}

func cellKey(board, bench string, rep int, p clock.Pair) string {
	key := board + "|" + bench + "|" + p.String()
	if rep > 0 {
		// Repetition 0 keeps the v1 key shape so migrated journals replay.
		key += "|rep" + strconv.Itoa(rep)
	}
	return key
}

// OpenJournalCohort opens (or creates) a checkpoint journal at path,
// bound to the campaign cohort in cfg.
//
//   - A current-format journal with the same cohort is loaded for replay.
//   - A current-format journal with a different cohort is a hard error
//     (*CohortMismatchError); the file is preserved.
//   - A legacy (v1) journal matching on (seed, profile) is migrated:
//     its cells are re-verdicted and rewritten under the v2 header.
//   - A legacy journal with a different (seed, profile) — or a file whose
//     header does not parse at all — is backed up to <path>.stale with a
//     warning naming both configurations, and the campaign starts fresh.
//
// The file is rewritten on open so a line half-written by a crash cannot
// poison later parses.
func OpenJournalCohort(path string, cfg JournalConfig) (*Journal, error) {
	j := &Journal{cells: make(map[string]PairResult)}
	if data, err := os.ReadFile(path); err == nil {
		keep, lerr := j.load(path, data, cfg)
		if lerr != nil {
			return nil, lerr
		}
		if !keep {
			// Stale or foreign journal: preserve the evidence, start fresh.
			if err := os.Rename(path, path+".stale"); err != nil {
				return nil, fmt.Errorf("characterize: checkpoint: backing up stale journal: %w", err)
			}
			cfg.warn("stale journal backed up to %s.stale", path)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("characterize: checkpoint: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("characterize: checkpoint: %w", err)
	}
	j.f = f
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	c := cfg.Cohort
	header := journalHeader{
		Kind: "header", Version: journalVersion,
		Seed: c.Seed, Profile: c.Profile,
		Boards: c.Boards, CodeVersion: c.CodeVersion, Cohort: c.Hash(),
	}
	if err := enc.Encode(header); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("characterize: checkpoint: %w", err)
	}
	for _, line := range j.lines() {
		if err := enc.Encode(line); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("characterize: checkpoint: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("characterize: checkpoint: %w", err)
	}
	if cfg.FsyncHeader {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("characterize: checkpoint: %w", err)
		}
	}
	return j, nil
}

// load parses a prior journal. It returns keep=false when the file is a
// stale or foreign journal the caller should back up, and a non-nil error
// only for the hard cohort-mismatch case. Undecodable interior lines —
// a truncated trailing line from a crash, or arbitrary corruption from a
// torn write — are skipped with a warning, never fatal.
func (j *Journal) load(path string, data []byte, cfg JournalConfig) (keep bool, err error) {
	// Split manually rather than with bufio.Scanner: a corrupt line of
	// arbitrary length (a torn write can splice lines together) must cost
	// only itself, never abort the scan on a token-size limit.
	first := true
	migrate := false
	for i, line := range bytes.Split(data, []byte("\n")) {
		lineNo := i + 1
		if len(line) == 0 {
			continue
		}
		if first {
			first = false
			var h journalHeader
			if json.Unmarshal(line, &h) != nil || h.Kind != "header" {
				cfg.warn("journal %s has no parseable header", path)
				return false, nil
			}
			switch h.Version {
			case journalVersion:
				if old := h.cohort(); !old.Equal(cfg.Cohort) {
					return false, &CohortMismatchError{Path: path, Old: old, New: cfg.Cohort}
				}
			case journalVersionLegacy:
				if h.Seed != cfg.Cohort.Seed || h.Profile != cfg.Cohort.Profile {
					cfg.warn("legacy journal %s was recorded under seed=%d profile=%q; campaign is seed=%d profile=%q",
						path, h.Seed, h.Profile, cfg.Cohort.Seed, cfg.Cohort.Profile)
					return false, nil
				}
				migrate = true
				cfg.warn("migrating legacy (v1) journal %s to v%d", path, journalVersion)
			default:
				cfg.warn("journal %s has unknown version %d", path, h.Version)
				return false, nil
			}
			continue
		}
		var c journalCell
		if json.Unmarshal(line, &c) != nil || c.Kind != "cell" {
			cfg.warn("journal %s: skipping corrupt line %d", path, lineNo)
			continue
		}
		if _, perr := clock.ParsePair(c.Pair); perr != nil {
			cfg.warn("journal %s: skipping corrupt line %d (bad pair %q)", path, lineNo, c.Pair)
			continue
		}
		if c.Result.Pair.String() != c.Pair {
			// Pair key disagrees with the payload: corrupt line.
			cfg.warn("journal %s: skipping corrupt line %d (pair key mismatch)", path, lineNo)
			continue
		}
		if c.Rep < 0 {
			cfg.warn("journal %s: skipping corrupt line %d (negative rep)", path, lineNo)
			continue
		}
		if migrate || !validity.KnownClass(c.Result.Verdict.Class) {
			// v1 cells predate run verdicts; re-verdict from the recorded
			// fault bookkeeping, which classification is a pure function of.
			c.Result.Verdict = c.Result.Classify()
		}
		j.cells[cellKey(c.Board, c.Bench, c.Rep, c.Result.Pair)] = c.Result
	}
	return true, nil
}

// lines returns the retained cells as journal lines in a stable order.
func (j *Journal) lines() []journalCell {
	out := make([]journalCell, 0, len(j.cells))
	for k, r := range j.cells {
		// The key is board|bench|pair[|repN]; neither boards, benches nor
		// pairs contain the separator.
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
	return out
}

// Lookup returns a previously completed cell, if the journal holds one.
func (j *Journal) Lookup(board, bench string, rep int, p clock.Pair) (PairResult, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	r, ok := j.cells[cellKey(board, bench, rep, p)]
	if ok {
		j.hits++
	}
	return r, ok
}

// Contains reports whether the journal holds a completed cell without
// counting it as a replay hit — the batched-precompute path asks this to
// avoid simulating cells the sweep will never launch, and must not skew
// the Hits accounting the real replay loop reports.
func (j *Journal) Contains(board, bench string, rep int, p clock.Pair) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.cells[cellKey(board, bench, rep, p)]
	return ok
}

// Record appends a completed cell, writing its line through to the
// operating system in one unbuffered write without an fsync: the cell
// survives a crash of the process at any later point, but not a power
// loss or an operating-system crash, which can drop writes the kernel
// has not yet flushed (ROADMAP item 8).
//
//gpulint:deterministic
func (j *Journal) Record(board, bench string, rep int, r PairResult) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cells[cellKey(board, bench, rep, r.Pair)] = r
	line, err := json.Marshal(journalCell{Kind: "cell", Board: board, Bench: bench, Pair: r.Pair.String(), Rep: rep, Result: r})
	if err != nil {
		return fmt.Errorf("characterize: checkpoint: %w", err)
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("characterize: checkpoint: %w", err)
	}
	return nil
}

// Hits reports how many sweep cells were answered from the journal — the
// work a resumed campaign did not repeat.
func (j *Journal) Hits() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.hits
}

// Len reports the number of completed cells the journal holds.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.cells)
}

// ErrForeignJournal marks a journal file that cannot be attributed to
// the asking cohort at all — no parseable header, an unknown format
// version, or a legacy header recorded under different (seed, profile).
// Distinct from *CohortMismatchError, which proves the file belongs to a
// *different* cohort: a foreign file is unreadable evidence. The fleet
// shard-journal merge quarantines foreign shards on this sentinel.
var ErrForeignJournal = errors.New("characterize: checkpoint: journal belongs to no identifiable cohort")

// CellRecord is one decoded checkpoint cell, addressed the way the
// journal keys it.
type CellRecord struct {
	Board  string
	Bench  string
	Rep    int
	Result PairResult
}

// ReadJournalCells decodes a journal's salvageable cells without opening
// it for writing, using the same torn-line-safe codec as
// OpenJournalCohort: corrupt interior lines cost only themselves. Cells
// return in the journal's stable (board, bench, rep, pair) order. A v2
// journal bound to a different cohort returns *CohortMismatchError; an
// unattributable file returns ErrForeignJournal. The fleet orchestrator
// reads per-shard journals through this to merge checkpoints on resume.
func ReadJournalCells(path string, cfg JournalConfig) ([]CellRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("characterize: checkpoint: %w", err)
	}
	j := &Journal{cells: make(map[string]PairResult)}
	keep, err := j.load(path, data, cfg)
	if err != nil {
		return nil, err
	}
	if !keep {
		return nil, fmt.Errorf("%w: %s", ErrForeignJournal, path)
	}
	lines := j.lines()
	out := make([]CellRecord, len(lines))
	for i, l := range lines {
		out[i] = CellRecord{Board: l.Board, Bench: l.Bench, Rep: l.Rep, Result: l.Result}
	}
	return out, nil
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
