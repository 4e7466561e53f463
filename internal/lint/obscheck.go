package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ObsCheck enforces the observability-layer discipline introduced with the
// internal/obs instrumentation stack.
//
// Two rules:
//
//  1. Leaked spans: a call returning *obs.Span (Track.Begin) opens a
//     virtual-clock interval that only Span.End closes. A span that is
//     discarded as a bare statement, bound to `_`, or bound to a variable
//     that is never used again leaves the interval open forever — the
//     track's slice nesting breaks and the Perfetto export shows a
//     never-ending box. End it, defer its End, return it or pass it on.
//
//  2. Stray metric registration: Registry.Counter/Gauge/FloatGauge/
//     Histogram/CounterVec walk a sorted family map under a mutex.
//     Calling them on hot paths (per cell, per sample) defeats the atomic
//     fast path the exporters rely on; registration belongs in init
//     functions and constructors (New*/new*/Open*/Observe/observe*),
//     which cache the returned handles. HTTP handlers never register,
//     whatever their name: the daemon's scrape-safety contract
//     (internal/daemon package doc) is that /metrics renders a
//     Registry.Snapshot of families created at construction, so a scrape
//     is a pure read and two scrapes of an idle server agree. A function
//     is handler-shaped when it takes a ResponseWriter and a *Request (a
//     declaration or a literal), or is a two-parameter ServeHTTP method.
//     internal/obs itself, where the registry is defined and exercised,
//     is exempt.
//
// Both rules match by type name (Span, Track, Registry, ResponseWriter,
// Request) so the fixture packages can model them without importing the
// real module or net/http.
var ObsCheck = &Analyzer{
	Name: "obscheck",
	Doc:  "instrumentation spans never ended; metric registration outside init/constructors or inside HTTP handlers",
	Run:  runObsCheck,
}

// registrationMethods are the Registry methods that take the family lock.
var registrationMethods = map[string]bool{
	"Counter":    true,
	"Gauge":      true,
	"FloatGauge": true,
	"Histogram":  true,
	"CounterVec": true,
}

func runObsCheck(pass *Pass) {
	if pass.Pkg.Path == "gpuperf/internal/obs" {
		return
	}
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		checkSpanLeaks(pass, info, file)
		checkRegistrationSites(pass, info, file)
	}
}

// namedTypeName returns the name of t's (possibly pointed-to) named type,
// or "".
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// isSpan reports whether t is *Span (or Span) by type name.
func isSpan(t types.Type) bool {
	return t != nil && namedTypeName(t) == "Span"
}

// checkSpanLeaks applies rule 1 to one file: every *Span produced by a
// call must have at least one non-discarding use.
func checkSpanLeaks(pass *Pass, info *types.Info, file *ast.File) {
	// discards counts `_ = x` blank assignments, which do not end a span;
	// uses counts every other mention (span.End(), defer, return, argument).
	discards := map[types.Object]int{}
	uses := map[types.Object]int{}
	ast.Inspect(file, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			li, ok := lhs.(*ast.Ident)
			if !ok || li.Name != "_" {
				continue
			}
			if ri, ok := ast.Unparen(as.Rhs[i]).(*ast.Ident); ok {
				if obj := info.Uses[ri]; obj != nil {
					discards[obj]++
				}
			}
		}
		return true
	})
	ast.Inspect(file, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				uses[obj]++
			}
		}
		return true
	})

	ast.Inspect(file, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.ExprStmt:
			call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
			if ok && isSpan(info.TypeOf(call)) {
				pass.Reportf(call.Pos(),
					"span discarded as a bare statement; the interval never ends — bind it and call End (or defer it)")
			}
		case *ast.AssignStmt:
			if len(stmt.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			// Single *Span result, or a tuple containing one.
			resultTypes := []types.Type{info.TypeOf(call)}
			if tuple, ok := info.TypeOf(call).(*types.Tuple); ok && tuple.Len() == len(stmt.Lhs) {
				resultTypes = resultTypes[:0]
				for i := 0; i < tuple.Len(); i++ {
					resultTypes = append(resultTypes, tuple.At(i).Type())
				}
			}
			if len(resultTypes) != len(stmt.Lhs) {
				return true
			}
			for i, lhs := range stmt.Lhs {
				if !isSpan(resultTypes[i]) {
					continue
				}
				li, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if li.Name == "_" {
					pass.Reportf(li.Pos(),
						"span discarded with _; the interval never ends — bind it and call End (or defer it)")
					continue
				}
				obj := info.Defs[li]
				if obj == nil {
					// plain `=` to an existing variable: ended elsewhere.
					continue
				}
				if uses[obj]-discards[obj] <= 0 {
					pass.Reportf(li.Pos(),
						"span %s is never ended; call %s.End, defer it, return it or pass it on", li.Name, li.Name)
				}
			}
		}
		return true
	})
}

// registrationSiteAllowed reports whether fn may register metrics: init
// functions and constructor-shaped names, which run once and cache the
// returned handles.
func registrationSiteAllowed(fn *ast.FuncDecl) bool {
	if fn == nil {
		// Package-level var initializers run once, like init.
		return true
	}
	name := fn.Name.Name
	if name == "init" {
		return true
	}
	for _, prefix := range []string{"New", "new", "Open", "Observe", "observe"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// handlerName reports the name to report n under when n is an
// HTTP-handler-shaped function declaration or literal, and "" otherwise.
func handlerName(info *types.Info, n ast.Node) string {
	var ft *ast.FuncType
	name := "handler literal"
	switch fn := n.(type) {
	case *ast.FuncDecl:
		ft, name = fn.Type, fn.Name.Name
	case *ast.FuncLit:
		ft = fn.Type
	default:
		return ""
	}
	nParams := 0
	var hasWriter, hasRequest bool
	for _, field := range ft.Params.List {
		nParams += max(len(field.Names), 1)
		t := info.TypeOf(field.Type)
		switch namedTypeName(t) {
		case "ResponseWriter":
			hasWriter = true
		case "Request":
			if _, ok := t.(*types.Pointer); ok {
				hasRequest = true
			}
		}
	}
	if (name == "ServeHTTP" && nParams == 2) || (hasWriter && hasRequest) {
		return name
	}
	return ""
}

// checkRegistrationSites applies rule 2 to one file. A registration call
// is judged first by its innermost enclosing handler-shaped function,
// however deeply it is nested inside it; outside any handler it may only
// be called from init functions or constructors, and function literals
// inherit their enclosing declaration's name.
func checkRegistrationSites(pass *Pass, info *types.Info, file *ast.File) {
	// handlers mirrors ast.Inspect's path from the root: one entry per
	// open node, the handler name for handler-shaped functions, else "".
	var handlers []string
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			handlers = handlers[:len(handlers)-1]
			return true
		}
		handlers = append(handlers, handlerName(info, n))
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !registrationMethods[sel.Sel.Name] {
			return true
		}
		if namedTypeName(info.TypeOf(sel.X)) != "Registry" {
			return true
		}
		for i := len(handlers) - 1; i >= 0; i-- {
			if handlers[i] != "" {
				pass.Reportf(call.Pos(),
					"Registry.%s called inside HTTP handler %s: handlers must not write to the registry — register the handle in New/a collector constructor and serve scrapes from Registry.Snapshot",
					sel.Sel.Name, handlers[i])
				return true
			}
		}
		if fn := enclosingFunc(file, call.Pos()); !registrationSiteAllowed(fn) {
			pass.Reportf(call.Pos(),
				"metric registered in %s: Registry.%s takes the family lock on every call; register in init or a constructor (New*/Observe*) and cache the handle",
				fn.Name.Name, sel.Sel.Name)
		}
		return true
	})
}
