package reproduce

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"gpuperf/internal/driver"
	"gpuperf/internal/obs"
)

// stripElapsed drops the one wall-clock line of a report ("reproduction
// completed in …"), the only text that legitimately varies between runs.
func stripElapsed(report string) string {
	lines := strings.Split(report, "\n")
	kept := lines[:0]
	for _, l := range lines {
		if strings.HasPrefix(l, "reproduction completed in ") {
			continue
		}
		kept = append(kept, l)
	}
	return strings.Join(kept, "\n")
}

// TestReportByteIdenticalAcrossModes is the PR's acceptance criterion: the
// full report produced with parallel pools and launch caching must be
// byte-identical (modulo the wall-clock line) to the sequential, uncached
// reference run at the same seed.
func TestReportByteIdenticalAcrossModes(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction; skipped with -short")
	}

	run := func(workers int, cached bool) string {
		t.Helper()
		restore := driver.PushLaunchCachingEnabled(cached)
		defer restore()
		opts := DefaultOptions()
		opts.Workers = workers
		var buf bytes.Buffer
		if _, err := RunContext(context.Background(), opts, &buf); err != nil {
			t.Fatalf("workers=%d cached=%v: %v", workers, cached, err)
		}
		return buf.String()
	}

	ref := stripElapsed(run(1, false)) // sequential, uncached reference
	fast := stripElapsed(run(8, true)) // full-width pools, warm caches
	if fast != ref {
		refLines, fastLines := strings.Split(ref, "\n"), strings.Split(fast, "\n")
		n := len(refLines)
		if len(fastLines) < n {
			n = len(fastLines)
		}
		for i := 0; i < n; i++ {
			if refLines[i] != fastLines[i] {
				t.Fatalf("report diverges at line %d:\n  sequential/uncached: %q\n  parallel/cached:     %q",
					i+1, refLines[i], fastLines[i])
			}
		}
		t.Fatalf("report lengths differ: %d vs %d lines", len(refLines), len(fastLines))
	}
}

// TestRunContextKeepsProcessCachingMode: a RunContext from DefaultOptions
// runs at the process's launch-caching mode, because the session it opens
// pins that mode for its lifetime. Under a pushed uncached mode no launch
// is served from the cache; under the default mode some are.
func TestRunContextKeepsProcessCachingMode(t *testing.T) {
	count := func() (hits, launches int64) {
		t.Helper()
		opts := DefaultOptions()
		opts.Boards = []string{"GTX 480"}
		opts.Sections = Sections{Characterization: true}
		rec := obs.New()
		opts.Obs = rec
		if _, err := RunContext(context.Background(), opts, io.Discard); err != nil {
			t.Fatal(err)
		}
		hits, _ = rec.Metrics().Total("driver_launch_cache_hits_total")
		launches, _ = rec.Metrics().Total("driver_launches_total")
		return hits, launches
	}

	restore := driver.PushLaunchCachingEnabled(false)
	hits, launches := count()
	restore()
	if hits != 0 || launches == 0 {
		t.Errorf("uncached process: %d of %d launches served from the cache, want 0 of more than 0", hits, launches)
	}
	if hits, launches := count(); hits == 0 {
		t.Errorf("default mode: 0 of %d launches served from the cache", launches)
	}
}
