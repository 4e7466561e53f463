package selfcheck

import (
	"fmt"

	"gpuperf/internal/lint"
)

// RunStatic executes the gpulint analyzer suite over the module rooted
// at root — the static half of the apparatus check. Where Run exercises
// dynamic invariants (energy conservation, DVFS monotonicity, …),
// RunStatic verifies the invariants the compiler cannot see: unit-safe
// frequency arithmetic, error and goroutine hygiene, and the
// determinism-taint contract over the artifact call graph. One Result
// per analyzer, plus one for the load/type-check itself.
//
// The whole suite runs in a single lint.Run so the module call graph is
// built once and the stale-ignore audit judges every //gpulint:ignore
// directive against the full analyzer set; the diagnostics are then
// bucketed per analyzer.
func RunStatic(root string) []Result {
	pkgs, err := lint.Load(root, "./...")
	if err != nil {
		return []Result{{Name: "lint/load", OK: false, Detail: err.Error()}}
	}
	out := []Result{{
		Name:   "lint/load",
		OK:     true,
		Detail: fmt.Sprintf("%d packages type-checked", len(pkgs)),
	}}
	byAnalyzer := map[string][]lint.Diagnostic{}
	for _, d := range lint.Run(pkgs, lint.All()) {
		byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], d)
	}
	for _, a := range lint.All() {
		diags := byAnalyzer[a.Name]
		r := Result{Name: "lint/" + a.Name, OK: len(diags) == 0, Detail: "clean"}
		if len(diags) > 0 {
			r.Detail = fmt.Sprintf("%d findings, first: %s", len(diags), diags[0])
		}
		out = append(out, r)
	}
	return out
}
