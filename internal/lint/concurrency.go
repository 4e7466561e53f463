package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Concurrency flags orphan goroutines: a `go` statement whose function
// shows no completion signal — no WaitGroup Add/Done, no channel
// operation, no select, no context — can outlive the experiment that
// spawned it. In a measurement harness that is not just a leak: a stray
// sweep goroutine keeps mutating the shared device while the next
// experiment measures, corrupting its numbers. For `go f(args)` with a
// named callee, passing a channel, context.Context or *sync.WaitGroup
// (or a pointer to a lock-bearing value) counts as the signal.
//
// Copying a lock by value (value receivers and parameters, assignments,
// range clauses) is left to go vet's copylocks check, which reports every
// such case; TestVetLocksAndCancels runs it in tier-1.
var Concurrency = &Analyzer{
	Name: "concurrency",
	Doc:  "goroutines without a completion signal",
	Run:  runConcurrency,
}

func runConcurrency(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				checkGoroutine(pass, pass.Pkg.Info, g)
			}
			return true
		})
	}
}

// lockTypes are the sync types whose presence behind a pointer marks a
// completion path for a named goroutine callee (see isSignalType).
var lockTypes = map[string]bool{
	"sync.Mutex":     true,
	"sync.RWMutex":   true,
	"sync.WaitGroup": true,
	"sync.Once":      true,
	"sync.Cond":      true,
}

// containsLock reports whether a value of type t embeds a sync lock by
// value (directly, in a struct field, or in an array element).
func containsLock(t types.Type) bool {
	return containsLockRec(t, map[types.Type]bool{})
}

func containsLockRec(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && lockTypes[obj.Pkg().Path()+"."+obj.Name()] {
			return true
		}
		return containsLockRec(named.Underlying(), seen)
	}
	switch t := t.(type) {
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if containsLockRec(t.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLockRec(t.Elem(), seen)
	}
	return false
}

// checkGoroutine flags go statements with no visible completion signal.
func checkGoroutine(pass *Pass, info *types.Info, g *ast.GoStmt) {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		if !hasCompletionSignal(info, lit.Body) {
			pass.Reportf(g.Pos(),
				"goroutine has no visible completion signal (WaitGroup, channel, select or context); the sweep cannot wait for or cancel it")
		}
		return
	}
	// Named callee: a channel, context or *sync.WaitGroup argument (or a
	// lock-bearing receiver pointer) is taken as the completion path.
	for _, arg := range g.Call.Args {
		if isSignalType(info.TypeOf(arg)) {
			return
		}
	}
	if sel, ok := ast.Unparen(g.Call.Fun).(*ast.SelectorExpr); ok {
		if isSignalType(info.TypeOf(sel.X)) {
			return
		}
	}
	pass.Reportf(g.Pos(),
		"goroutine has no visible completion signal (no WaitGroup/channel/context reaches it); the sweep cannot wait for or cancel it")
}

// isSignalType reports whether t can carry a completion signal: a
// channel, a context.Context, a *sync.WaitGroup, or something containing
// one of those.
func isSignalType(t types.Type) bool {
	switch t := t.(type) {
	case nil:
		return false
	case *types.Chan:
		return true
	case *types.Pointer:
		return isSignalType(t.Elem()) || containsLock(t.Elem())
	case *types.Named:
		obj := t.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context" {
			return true
		}
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup" {
			return true
		}
		return isSignalType(t.Underlying())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if isSignalType(t.Field(i).Type()) {
				return true
			}
		}
	case *types.Interface:
		// context.Context reaches here when named; other interfaces: no.
		return false
	}
	return false
}

// hasCompletionSignal scans a goroutine body for any construct that ties
// its lifetime to the launcher: channel sends/receives/closes, select,
// WaitGroup method calls, or use of a context.
func hasCompletionSignal(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if fun.Name == "close" {
					found = true
				}
			case *ast.SelectorExpr:
				name := fun.Sel.Name
				if name == "Done" || name == "Add" || name == "Wait" || name == "Lock" || name == "Unlock" {
					if isSignalType(info.TypeOf(fun.X)) || isSyncType(info.TypeOf(fun.X)) {
						found = true
					}
				}
			}
		case *ast.Ident:
			if t := info.TypeOf(n); t != nil && isContextType(t) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isSyncType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
