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
	pkgs, _ := loadModule(t)
	for _, d := range Run(pkgs, All()) {
		t.Errorf("gpulint: %s", d)
	}
}
