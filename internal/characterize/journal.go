package characterize

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
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
// profile): a matching one is migrated to the current header, a
// mismatched or unparseable one is backed up to <path>.stale — never
// silently truncated — and the campaign starts fresh.
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

// headerLine is the header line, without its newline, that a journal
// bound to cohort c starts with.
func headerLine(c validity.Cohort) ([]byte, error) {
	return json.Marshal(journalHeader{
		Kind: "header", Version: journalVersion,
		Seed: c.Seed, Profile: c.Profile,
		Boards: c.Boards, CodeVersion: c.CodeVersion, Cohort: c.Hash(),
	})
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
	cells map[cellKey]PairResult
	hits  int
}

// cellKey addresses one journaled cell.
type cellKey struct {
	board, bench string
	rep          int
	pair         clock.Pair
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
// A loaded journal that is intact — its header is the one this cohort
// writes, every cell line is exactly what Record writes, no line was
// skipped, re-verdicted or repeated, and the file ends in a newline — is
// opened for appending and not written to. Any other loaded journal is
// repaired: its header and cells, sorted by (board, bench, rep, pair),
// are written to <path>.tmp, which is synced and renamed over path, and
// then the directory is synced. A journal is never truncated in place,
// so a crash during an open leaves the old journal or the repaired one,
// and a line half-written by a crash costs only itself.
func OpenJournalCohort(path string, cfg JournalConfig) (*Journal, error) {
	header, err := headerLine(cfg.Cohort)
	if err != nil {
		return nil, fmt.Errorf("characterize: checkpoint: %w", err)
	}
	j := &Journal{cells: make(map[cellKey]PairResult)}
	keep, intact, err := j.load(path, cfg, header)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return nil, err
	case !keep:
		// Stale or foreign journal: preserve the evidence, start fresh.
		if err := os.Rename(path, path+".stale"); err != nil {
			return nil, fmt.Errorf("characterize: checkpoint: backing up stale journal: %w", err)
		}
		cfg.warn("stale journal backed up to %s.stale", path)
	case intact:
		if j.f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0); err != nil {
			return nil, fmt.Errorf("characterize: checkpoint: %w", err)
		}
		return j, nil
	default:
		if j.f, err = rewriteJournal(path, header, j.lines()); err != nil {
			return nil, fmt.Errorf("characterize: checkpoint: %w", err)
		}
		return j, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("characterize: checkpoint: %w", err)
	}
	if _, err := f.Write(append(header, '\n')); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("characterize: checkpoint: %w", err)
	}
	j.f = f
	return j, nil
}

// repairWriter wraps the temporary file a repair writes. Tests replace it
// to fail the write after any number of bytes.
var repairWriter = func(f *os.File) io.Writer { return f }

// rewriteJournal replaces the journal at path with header and cells
// without truncating it in place: the bytes go to path.tmp, created with
// the journal's permissions, which is synced and renamed over path
// before the directory is synced. It returns the new journal open for
// appending; on an error the old journal is still at path.
func rewriteJournal(path string, header []byte, cells []journalCell) (*os.File, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, st.Mode().Perm())
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(repairWriter(f))
	enc := json.NewEncoder(w)
	_, err = w.Write(append(header, '\n'))
	for i := 0; err == nil && i < len(cells); i++ {
		err = enc.Encode(&cells[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return nil, err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		_ = f.Close()
		return nil, err
	}
	return f, nil
}

// syncDir makes a rename in dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// load parses the journal at path in one streaming pass. It returns
// keep=false when the file is a stale or foreign journal the caller
// should back up, and a non-nil error for the hard cohort-mismatch case
// or a failed open or read (fs.ErrNotExist for a missing journal).
// Undecodable interior lines — a truncated trailing line from a crash,
// or arbitrary corruption from a torn write — are skipped with a
// warning, never fatal. intact reports that the file holds exactly
// header and the lines Record writes, each cell once, and ends in a
// newline: such a journal can be appended to as it is.
func (j *Journal) load(path string, cfg JournalConfig, header []byte) (keep, intact bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, false, fmt.Errorf("characterize: checkpoint: %w", err)
	}
	defer func() { _ = f.Close() }() // read-only
	// Lines have no length limit: a corrupt line of arbitrary length (a
	// torn write can splice lines together) must cost only itself.
	br := bufio.NewReaderSize(f, 64<<10)
	var (
		long    []byte // a line longer than br's buffer, assembled
		dec     cellDecoder
		c       journalCell
		first   = true
		migrate = false
	)
	intact = true
	for lineNo := 1; ; lineNo++ {
		line, rerr := br.ReadSlice('\n')
		if rerr == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for rerr == bufio.ErrBufferFull {
				line, rerr = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if rerr != nil && rerr != io.EOF {
			return false, false, fmt.Errorf("characterize: checkpoint: %w", rerr)
		}
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
		} else if n > 0 {
			intact = false // the last line lacks its newline
		}
		if len(line) == 0 {
			if rerr == io.EOF {
				break
			}
			intact = false
			continue
		}
		if first {
			first = false
			if !bytes.Equal(line, header) {
				intact = false
				if keep, migrate, err = checkHeader(path, line, cfg); !keep || err != nil {
					return false, false, err
				}
			}
		} else if !j.loadCell(path, lineNo, line, cfg, &dec, &c, migrate) {
			intact = false
		}
		if rerr == io.EOF {
			break
		}
	}
	return true, intact && !first, nil
}

// checkHeader judges a header line that is not the cohort's own:
// keep=false marks a journal to back up as stale, migrate a legacy (v1)
// journal whose cells must be re-verdicted, and a *CohortMismatchError a
// journal bound to another cohort.
func checkHeader(path string, line []byte, cfg JournalConfig) (keep, migrate bool, err error) {
	var h journalHeader
	if json.Unmarshal(line, &h) != nil || h.Kind != "header" {
		cfg.warn("journal %s has no parseable header", path)
		return false, false, nil
	}
	switch h.Version {
	case journalVersion:
		if old := h.cohort(); !old.Equal(cfg.Cohort) {
			return false, false, &CohortMismatchError{Path: path, Old: old, New: cfg.Cohort}
		}
		return true, false, nil
	case journalVersionLegacy:
		if h.Seed != cfg.Cohort.Seed || h.Profile != cfg.Cohort.Profile {
			cfg.warn("legacy journal %s was recorded under seed=%d profile=%q; campaign is seed=%d profile=%q",
				path, h.Seed, h.Profile, cfg.Cohort.Seed, cfg.Cohort.Profile)
			return false, false, nil
		}
		cfg.warn("migrating legacy (v1) journal %s to v%d", path, journalVersion)
		return true, true, nil
	default:
		cfg.warn("journal %s has unknown version %d", path, h.Version)
		return false, false, nil
	}
}

// loadCell decodes one cell line into the journal, skipping it with a
// warning when it is corrupt. It reports whether the line is exactly
// what Record writes and was kept as it stands: decoded on dec's fast
// path, not re-verdicted, and the first line for its cell.
func (j *Journal) loadCell(path string, lineNo int, line []byte, cfg JournalConfig, dec *cellDecoder, c *journalCell, migrate bool) bool {
	asWritten := dec.decode(line, c)
	if !asWritten {
		*c = journalCell{}
		if json.Unmarshal(line, c) != nil || c.Kind != "cell" {
			cfg.warn("journal %s: skipping corrupt line %d", path, lineNo)
			return false
		}
	}
	if _, perr := clock.ParsePair(c.Pair); perr != nil {
		cfg.warn("journal %s: skipping corrupt line %d (bad pair %q)", path, lineNo, c.Pair)
		return false
	}
	if c.Result.Pair.String() != c.Pair {
		// Pair key disagrees with the payload: corrupt line.
		cfg.warn("journal %s: skipping corrupt line %d (pair key mismatch)", path, lineNo)
		return false
	}
	if c.Rep < 0 {
		cfg.warn("journal %s: skipping corrupt line %d (negative rep)", path, lineNo)
		return false
	}
	if migrate || !validity.KnownClass(c.Result.Verdict.Class) {
		// v1 cells predate run verdicts; re-verdict from the recorded
		// fault bookkeeping, which classification is a pure function of.
		c.Result.Verdict = c.Result.Classify()
		asWritten = false
	}
	k := cellKey{board: c.Board, bench: c.Bench, rep: c.Rep, pair: c.Result.Pair}
	if _, dup := j.cells[k]; dup {
		asWritten = false // a repair keeps the last line of a cell only
	}
	j.cells[k] = c.Result
	return asWritten
}

// lines returns the retained cells as journal lines in a stable order.
func (j *Journal) lines() []journalCell {
	out := make([]journalCell, 0, len(j.cells))
	for k, r := range j.cells {
		out = append(out, journalCell{Kind: "cell", Board: k.board, Bench: k.bench, Pair: r.Pair.String(), Rep: k.rep, Result: r})
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
	r, ok := j.cells[cellKey{board: board, bench: bench, rep: rep, pair: p}]
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
	_, ok := j.cells[cellKey{board: board, bench: bench, rep: rep, pair: p}]
	return ok
}

// Record appends a completed cell to the end of the journal file (which
// OpenJournalCohort opened for appending), writing its line through to
// the operating system in one unbuffered write without an fsync: the
// cell survives a crash of the process at any later point, but not a
// power loss or an operating-system crash, which can drop writes the
// kernel has not yet flushed (ROADMAP item 8). A crash inside the write
// leaves a torn last line, which the next open skips and repairs away.
//
//gpulint:deterministic
func (j *Journal) Record(board, bench string, rep int, r PairResult) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cells[cellKey{board: board, bench: bench, rep: rep, pair: r.Pair}] = r
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
	j := &Journal{cells: make(map[cellKey]PairResult)}
	keep, _, err := j.load(path, cfg, nil)
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
