package fleet

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"

	"gpuperf/internal/characterize"
	"gpuperf/internal/validity"
)

// Sharded checkpointing: each shard journals its cells to
// <checkpoint>.shard<N>, all bound to the same fleet cohort — which
// deliberately excludes the shard count, so a campaign interrupted at
// -shards 8 can resume at -shards 2. On resume the orchestrator pools
// every existing shard file's salvageable cells (the torn-line-safe
// codec from the single-board journal) and records them in their owning
// shards' journals under the new layout. Only then are the surplus files
// (old indices ≥ the new shard count) retired to <file>.merged, so a
// process that dies at any point before keeps every cell in some file a
// later resume reads. Record writes through to the OS, so this covers
// process death; power loss, which could drop written pages, is out of
// scope here as it is for Journal.Record. A shard file that cannot be
// attributed at all — no parseable header, unknown version — is
// quarantined to <file>.quarantined and its shard starts fresh; a file
// provably bound to a different cohort is a hard error, exactly like the
// single-board journal.

// ShardPath names shard s's checkpoint journal under the campaign's
// base checkpoint path.
func ShardPath(base string, s int) string {
	return base + ".shard" + strconv.Itoa(s)
}

var shardFileRe = regexp.MustCompile(`\.shard(\d+)$`)

// mergedPool is the outcome of pooling existing shard journals.
type mergedPool struct {
	cells   []characterize.CellRecord
	surplus []string // pooled files whose index ≥ the new shard count, to retire once recorded
}

// mergeShardJournals pools the salvageable cells of every existing
// <base>.shard<k> file under the fleet cohort. Foreign files are
// quarantined (renamed and skipped), and a file that vanished since the
// scan is skipped; a *CohortMismatchError is returned as the hard error
// it is. Nothing else is renamed: files whose index no longer maps to a
// shard under the new layout are listed in surplus for the caller to
// retire once their cells are recorded.
func mergeShardJournals(base string, shards int, cohort validity.Cohort, warn func(string, ...any)) (*mergedPool, error) {
	matches, err := filepath.Glob(base + ".shard*")
	if err != nil {
		return nil, fmt.Errorf("fleet: checkpoint scan: %w", err)
	}
	type shardFile struct {
		path string
		idx  int
	}
	var files []shardFile
	for _, path := range matches {
		m := shardFileRe.FindStringSubmatch(path)
		if m == nil {
			continue // .stale/.merged/.quarantined leftovers
		}
		idx, err := strconv.Atoi(m[1])
		if err != nil {
			continue
		}
		files = append(files, shardFile{path: path, idx: idx})
	}
	sort.Slice(files, func(a, b int) bool { return files[a].idx < files[b].idx })

	pool := &mergedPool{}
	seen := make(map[string]bool)
	for _, f := range files {
		cells, err := characterize.ReadJournalCells(f.path, characterize.JournalConfig{Cohort: cohort, Warn: warn})
		switch {
		case err == nil:
		case errors.Is(err, characterize.ErrForeignJournal):
			// Unattributable shard file: quarantine it — this shard's
			// cells are lost, but the merge (and every other shard's
			// checkpoint) survives.
			q := f.path + ".quarantined"
			if rerr := os.Rename(f.path, q); rerr != nil {
				return nil, fmt.Errorf("fleet: quarantining %s: %w", f.path, rerr)
			}
			warn("shard journal %s is unreadable; quarantined to %s", f.path, q)
			continue
		case errors.Is(err, fs.ErrNotExist):
			continue
		default:
			// Includes *characterize.CohortMismatchError: the file belongs
			// to a different campaign — never merge across cohorts.
			return nil, err
		}
		for _, c := range cells {
			key := c.Board + "|" + c.Bench + "|" + strconv.Itoa(c.Rep) + "|" + c.Result.Pair.String()
			if seen[key] {
				continue // duplicate cell across shard files: first (lowest shard) wins
			}
			seen[key] = true
			pool.cells = append(pool.cells, c)
		}
		if f.idx >= shards {
			pool.surplus = append(pool.surplus, f.path)
		}
	}
	return pool, nil
}
