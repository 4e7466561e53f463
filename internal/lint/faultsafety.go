package lint

import (
	"go/ast"
	"go/types"
)

// FaultSafety flags leaked cancel functions: an assignment binding a
// context.CancelFunc — from context.WithCancel/WithTimeout/WithDeadline
// or from any other function returning one, such as the harness's
// LaunchContext — must release it: call it, defer it, return it or pass
// it on. Discarding the cancel with `_` (directly or via `_ = cancel`)
// leaks the watchdog timer and, for deadline contexts, keeps the
// parent's resources pinned until the deadline fires.
//
// go vet's lostcancel check reports a discarded cancel only from package
// context, and counts `_ = cancel` as a use; those two cases are this
// analyzer's alone. Whether injected faults are retried is not checked
// here: driver.Harness holds the module's only retry loops.
var FaultSafety = &Analyzer{
	Name: "faultsafety",
	Doc:  "leaked context cancel functions",
	Run:  runFaultSafety,
}

func runFaultSafety(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		checkCancelFuncs(pass, pass.Pkg.Info, file)
	}
}

// isCancelFunc reports whether t is context.CancelFunc.
func isCancelFunc(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "CancelFunc"
}

// checkCancelFuncs checks one file: every cancel function bound by a `:=`
// assignment must have at least one non-discarding use.
func checkCancelFuncs(pass *Pass, info *types.Info, file *ast.File) {
	// discarded holds objects whose only observed uses are `_ = x` style
	// blank assignments; those do not count as releasing the cancel.
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
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := info.Uses[id]; obj != nil {
			uses[obj]++
		}
		return true
	})

	ast.Inspect(file, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		tuple, ok := info.TypeOf(call).(*types.Tuple)
		if !ok || tuple.Len() != len(as.Lhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			if !isCancelFunc(tuple.At(i).Type()) {
				continue
			}
			li, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if li.Name == "_" {
				pass.Reportf(li.Pos(),
					"cancel function discarded with _; the watchdog timer leaks — call it, defer it or return it")
				continue
			}
			obj := info.Defs[li]
			if obj == nil {
				// plain `=` to an existing variable: its lifetime is managed
				// elsewhere.
				continue
			}
			if uses[obj]-discards[obj] <= 0 {
				pass.Reportf(li.Pos(),
					"cancel function %s is never released (only discarded); call it, defer it or return it", li.Name)
			}
		}
		return true
	})
}
