// The golden test lives in an external test package: it drives the
// session layer, which itself imports reproduce.
package reproduce_test

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"gpuperf/internal/reproduce"
	"gpuperf/internal/session"
)

// stripElapsed removes the wall-clock line, the only nondeterministic
// byte range in a report.
func stripElapsed(s string) string {
	lines := strings.Split(s, "\n")
	out := lines[:0]
	for _, l := range lines {
		if strings.HasPrefix(l, "reproduction completed in ") {
			continue
		}
		out = append(out, l)
	}
	return strings.Join(out, "\n")
}

// TestPaperQuickGolden pins the seed-42 quick report to the golden file
// captured before the session refactor: the Session-driven engine must
// reproduce the pre-refactor byte stream exactly, at the default worker
// count and at the sequential reference.
func TestPaperQuickGolden(t *testing.T) {
	checkGolden(t, "testdata/paper-quick-seed42.golden", reproduce.Quick)
}

// TestPaperFullGolden pins the complete seed-42 report — Section IV's
// Tables V–VIII and Figs. 5–11, the ablations, future work and the
// self-check, none of which the quick report runs — to the stdout of
// `paper -seed 42` without its elapsed line.
func TestPaperFullGolden(t *testing.T) {
	checkGolden(t, "testdata/paper-full-seed42.golden")
}

// checkGolden reproduces the seed-42 report under tweaks at the default
// worker count, at the sequential reference, and at the sequential
// reference with launch caching off (every launch compiles its kernel
// afresh), and requires each to equal the golden file byte for byte.
func checkGolden(t *testing.T, path string, tweaks ...func(*reproduce.Options)) {
	t.Helper()
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		workers int
		cache   bool
	}{{0, true}, {1, true}, {1, false}} {
		s, err := session.New(session.WithSeed(42), session.WithWorkers(run.workers), session.WithCache(run.cache))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, err = s.Reproduce(context.Background(), &buf, tweaks...)
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := stripElapsed(buf.String()); got != string(golden) {
			t.Fatalf("workers=%d cache=%v: report diverged from %s at line %d (len %d vs %d)",
				run.workers, run.cache, path, firstDiffLine(got, string(golden)), len(got), len(golden))
		}
	}
}

// firstDiffLine returns the 1-based number of the first line where a and
// b differ.
func firstDiffLine(a, b string) int {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			return i + 1
		}
	}
	return len(al) + 1
}
