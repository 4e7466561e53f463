package lint

import (
	"testing"
)

// TestSelfRun is the meta-test: the full analyzer suite runs over this
// repository itself, and any finding fails tier-1 `go test ./...`. This
// is what keeps the unit, error, goroutine, determinism and validity
// invariants enforced as the codebase grows — a new violation anywhere
// in the module breaks the build.
func TestSelfRun(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the module sweep is not covering the tree", len(pkgs))
	}
	for _, d := range Run(pkgs, All()) {
		t.Errorf("gpulint: %s", d)
	}
}
