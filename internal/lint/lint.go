// Package lint is a project-specific static-analysis suite for gpuperf.
//
// The codebase encodes invariants the compiler cannot see: MHz vs. Hz
// scaling factors in internal/clock, the byte-identity of every artifact
// at a fixed seed, and the triage gate in front of every published cell.
// A wrong unit silently corrupts the Fig. 4 energy-saving ladder, and a
// nondeterministic artifact breaks every golden comparison. The
// analyzers turn those invariants into build-time checks. Each one
// earns its place with a bad-fixture case that no other check reports —
// not go vet, not another analyzer, not a tier-1 test — or with a
// contract that nothing else enforces:
//
//   - unitsafety:   unit conversions on frequency/latency-named values
//     outside whitelisted conversion helpers, and exact float
//     ==/!= comparisons. Unique: `s.CoreFreqMHz * 1e6` outside
//     clock/arch, and `a == b` on float64.
//   - errcheck:     unchecked error returns and fmt.Errorf wrapping an
//     error with %v/%s instead of %w. Unique: a bare `patch()` whose
//     error vet's unusedresult does not know, and `%v` on an error,
//     which vet's printf accepts.
//   - concurrency:  goroutines launched with no visible completion
//     signal. Unique: `go work(3)`; vet has no goroutine-lifetime check.
//   - faultsafety:  context cancel functions that are discarded rather
//     than released. Unique: `_ = cancel` and a discarded cancel from a
//     function outside package context (LaunchContext), neither of
//     which vet's lostcancel reports.
//   - obscheck:     instrumentation spans that are never ended, and
//     metric registration outside init functions and constructors or
//     inside HTTP-handler-shaped functions — the gpuperfd scrape-safety
//     contract says handlers read the registry through Snapshot and
//     never mint series.
//   - sessioncheck: context.Context parameters that are accepted but
//     never used (breaking the cancellation chain).
//   - validitycheck: table writers that render measured sweep results
//     (BenchResult parameters feeding AddRow/AddRowf) without consuming
//     a triage verdict from the validity layer. Contract: an unstable
//     cell renders as "n/a (unstable)" (report.Table4); no other check
//     reads a writer's inputs.
//   - determinism:  cross-function taint pass — nondeterminism sources
//     (wall clock, global math/rand, map iteration order, select races,
//     unordered goroutine fan-in) reaching the byte-identity artifact
//     paths through the module call graph (callgraph.go). Contract:
//     byte identity at a fixed seed; a golden test sees a source only
//     when it flips a tested run's bytes, this pass on every run.
//   - detcontract:  //gpulint:deterministic contract comments verified
//     against the same call-graph taint, so a claim of determinism is
//     checked, never trusted. Unique: a declared-deterministic function
//     one call away from time.Now.
//   - staleignore:  //gpulint:ignore directives that suppressed nothing
//     in this run, or that name no analyzer — dead suppressions rot
//     silently otherwise. No other check reads the directives.
//
// Checks left to others: lock copies (value receivers and parameters,
// assignments, range clauses) are go vet's copylocks check, which
// TestVetLocksAndCancels runs in tier-1 together with lostcancel. A
// counter's core/memory-event class is checked where the counter set is
// built: counters.newSet panics on a class other than CoreEvent or
// MemEvent, or on a name registered twice. Retrying injected faults is
// driver.Harness's alone, so no rule looks for retry code beside a
// fault-aware call.
//
// The framework is stdlib-only (go/ast, go/parser, go/types): the module
// deliberately has an empty dependency set, so golang.org/x/tools is not
// available. Packages are loaded and type-checked by the loader in
// load.go; analyzers receive fully type-checked syntax. Most analyzers
// inspect one package at a time (Analyzer.Run); the determinism family
// runs once over the whole package set (Analyzer.RunModule) on top of a
// shared call graph.
//
// A finding can be acknowledged in place with a trailing line comment
//
//	//gpulint:ignore <analyzer>[,<analyzer>...] -- reason
//
// which suppresses diagnostics from the named analyzers on that line.
// The staleignore pseudo-analyzer audits these: a directive that
// suppressed nothing (judged only when every analyzer it names actually
// ran) is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// TraceStep is one hop of a -why explanation: a position plus what
// happens there ("sink X", "f calls g", "source: time.Now() in h").
type TraceStep struct {
	Pos  token.Position
	Desc string
}

// Diagnostic is one analyzer finding at one source position. Trace, when
// non-empty, carries the source→sink call path behind an interprocedural
// finding (printed by gpulint -why).
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	Trace    []TraceStep
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named rule. Exactly one of Run and RunModule is set
// (except for staleignore, which the framework implements itself): Run
// inspects one package at a time, RunModule runs once over the whole
// loaded package set with the shared call-graph facts.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// Pass carries one (analyzer, package) pairing through a run.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModulePass carries one module-level analyzer across the whole package
// set. The determinism facts (call graph, taint, sink reachability) are
// computed once and shared by every module analyzer in the run.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package

	diags *[]Diagnostic
	facts *detFacts
}

// detFacts returns the shared determinism analyses, computing them on
// first use.
func (p *ModulePass) detFacts() *detFacts {
	if p.facts == nil {
		p.facts = computeDetFacts(p.Pkgs)
	}
	return p.facts
}

// report records a finding at pos (resolved through pkg's file set) with
// an optional -why trace.
func (p *ModulePass) report(pkg *Package, pos token.Pos, trace []TraceStep, msg string) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pkg.Fset.Position(pos),
		Message:  msg,
		Trace:    trace,
	})
}

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		UnitSafety, ErrCheck, Concurrency, FaultSafety,
		ObsCheck, SessionCheck, ValidityCheck, Determinism, DetContract, StaleIgnore,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics sorted by file, line, column, analyzer and message, with
// exact duplicates removed — the output is byte-stable run-to-run.
// Findings on lines carrying a matching //gpulint:ignore directive are
// dropped; if the staleignore analyzer is in the set, directives that
// suppressed nothing (and whose analyzers all ran) are reported.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	mp := &ModulePass{Pkgs: pkgs, diags: &raw}
	for _, a := range analyzers {
		switch {
		case a.Run != nil:
			for _, pkg := range pkgs {
				pass := &Pass{Analyzer: a, Pkg: pkg, diags: &raw}
				a.Run(pass)
			}
		case a.RunModule != nil:
			mp.Analyzer = a
			a.RunModule(mp)
		}
	}

	ignores := collectIgnores(pkgs)
	var diags []Diagnostic
	for _, d := range raw {
		if ignores.covers(d) {
			continue
		}
		diags = append(diags, d)
	}
	for _, a := range analyzers {
		if a == StaleIgnore {
			diags = append(diags, ignores.stale(analyzers)...)
			break
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	// Dedup identical findings (same analyzer, position and message):
	// overlapping patterns may report one site twice, and the JSON output
	// is pinned byte-stable by a golden test.
	out := diags[:0]
	for i, d := range diags {
		if i > 0 {
			prev := out[len(out)-1]
			if prev.Analyzer == d.Analyzer && prev.Pos == d.Pos && prev.Message == d.Message {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// ignoreEntry is one //gpulint:ignore directive with use tracking.
type ignoreEntry struct {
	pos   token.Position
	names map[string]bool // analyzer names; "*" suppresses all
	list  string          // names as written, for the stale message
	used  bool
}

// ignoreIndex maps file:line to the directive on that line.
type ignoreIndex map[string]*ignoreEntry

// covers reports whether d is suppressed, marking the directive used.
func (idx ignoreIndex) covers(d Diagnostic) bool {
	e := idx[fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)]
	if e == nil || !(e.names["*"] || e.names[d.Analyzer]) {
		return false
	}
	e.used = true
	return true
}

// stale returns a staleignore diagnostic for every directive that
// suppressed nothing and is auditable under the analyzers that actually
// ran: every analyzer the directive names must have been in the run (a
// bare directive needs the full suite), so `gpulint -only unitsafety`
// never declares an errcheck suppression dead. Directives naming an
// analyzer that does not exist at all are always reported.
func (idx ignoreIndex) stale(analyzers []*Analyzer) []Diagnostic {
	ran := map[string]bool{}
	for _, a := range analyzers {
		if a.Run != nil || a.RunModule != nil {
			ran[a.Name] = true
		}
	}
	full := true
	for _, a := range All() {
		if (a.Run != nil || a.RunModule != nil) && !ran[a.Name] {
			full = false
		}
	}

	var entries []*ignoreEntry
	for _, e := range idx {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].pos.Filename != entries[j].pos.Filename {
			return entries[i].pos.Filename < entries[j].pos.Filename
		}
		return entries[i].pos.Line < entries[j].pos.Line
	})

	var out []Diagnostic
	for _, e := range entries {
		if e.used {
			continue
		}
		var names []string
		for name := range e.names {
			names = append(names, name)
		}
		sort.Strings(names)
		auditable := true
		unknown := ""
		for _, name := range names {
			switch {
			case name == "*":
				auditable = auditable && full
			case ByName(name) == nil:
				if unknown == "" {
					unknown = name
				}
			case !ran[name]:
				auditable = false
			}
		}
		if unknown != "" {
			out = append(out, Diagnostic{
				Analyzer: StaleIgnore.Name,
				Pos:      e.pos,
				Message:  fmt.Sprintf("//gpulint:ignore names unknown analyzer %q (try gpulint -list); it can never suppress anything", unknown),
			})
			continue
		}
		if !auditable {
			continue
		}
		out = append(out, Diagnostic{
			Analyzer: StaleIgnore.Name,
			Pos:      e.pos,
			Message:  fmt.Sprintf("//gpulint:ignore %s suppressed nothing in this run; the violation it acknowledged is gone — remove the directive", e.list),
		})
	}
	return out
}

// collectIgnores gathers //gpulint:ignore directives from every package.
func collectIgnores(pkgs []*Package) ignoreIndex {
	idx := ignoreIndex{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//gpulint:ignore")
					if !ok {
						continue
					}
					// Everything after "--" is a human-readable reason.
					if i := strings.Index(text, "--"); i >= 0 {
						text = text[:i]
					}
					pos := pkg.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					e := idx[key]
					if e == nil {
						e = &ignoreEntry{pos: pos, names: map[string]bool{}}
						idx[key] = e
					}
					fields := strings.FieldsFunc(text, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
					if len(fields) == 0 {
						e.names["*"] = true
						e.list = "(all analyzers)"
					}
					for _, n := range fields {
						e.names[n] = true
					}
					if len(fields) > 0 {
						e.list = strings.Join(fields, ",")
					}
				}
			}
		}
	}
	return idx
}

// enclosingFunc returns the innermost FuncDecl containing pos in file,
// or nil for package-level positions.
func enclosingFunc(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}
