package selfcheck

import (
	"path/filepath"
	"strings"
	"testing"

	"gpuperf/internal/lint"
)

// TestRunStaticReportsFindings points the static group at a fixture
// package with known errcheck violations: the errcheck invariant must
// fail and carry a file:line detail, while unrelated analyzers stay
// green. (The full-module clean run is covered by the lint self-run
// meta-test; re-running it here would only duplicate the work.)
func TestRunStaticReportsFindings(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	fixture := filepath.Join(root, "internal", "lint", "testdata", "src", "errcheck_bad")
	results := RunStatic(fixture)
	byName := map[string]Result{}
	for _, r := range results {
		byName[r.Name] = r
	}
	if r := byName["lint/load"]; !r.OK {
		t.Fatalf("fixture failed to load: %s", r.Detail)
	}
	if r := byName["lint/errcheck"]; r.OK {
		t.Error("lint/errcheck passed on a fixture with known violations")
	} else if !strings.Contains(r.Detail, "bad.go:") {
		t.Errorf("errcheck detail carries no file:line: %q", r.Detail)
	}
	if r := byName["lint/unitsafety"]; !r.OK {
		t.Errorf("lint/unitsafety should be clean on the errcheck fixture: %s", r.Detail)
	}
}

// TestRunStaticBadRoot: an unloadable root must surface as a failing
// load result, never a panic or an empty pass.
func TestRunStaticBadRoot(t *testing.T) {
	results := RunStatic(filepath.Join(t.TempDir(), "nope"))
	if len(results) != 1 || results[0].OK {
		t.Fatalf("want a single failing lint/load result, got %v", results)
	}
}
