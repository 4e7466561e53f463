package lint

import (
	"go/ast"
	"go/types"
)

// SessionCheck enforces the session-engine discipline introduced with the
// context-aware campaign stack: a function that accepts a
// context.Context must use it — pass it to a callee, check Err, select on
// Done. A context parameter with zero uses silently breaks the
// cancellation chain: the caller believes a cancel propagates, but the
// subtree below this function runs to completion. A function that
// genuinely needs no context opts out by naming the parameter _ (or
// leaving it unnamed).
var SessionCheck = &Analyzer{
	Name: "sessioncheck",
	Doc:  "context parameters that are never used",
	Run:  runSessionCheck,
}

func runSessionCheck(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		checkDroppedCtx(pass, info, file)
	}
}

// checkDroppedCtx applies the rule to one file: every named
// context.Context parameter of a function with a body must have at least
// one use.
func checkDroppedCtx(pass *Pass, info *types.Info, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			return true
		}
		for _, field := range fd.Type.Params.List {
			if !isContextType(info.TypeOf(field.Type)) {
				continue
			}
			for _, name := range field.Names {
				if name.Name == "_" {
					continue
				}
				obj := info.Defs[name]
				if obj == nil {
					continue
				}
				used := false
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
						used = true
					}
					return !used
				})
				if !used {
					pass.Reportf(name.Pos(),
						"context parameter %s is never used, so cancellation stops propagating here; thread it to the callees or name it _", name.Name)
				}
			}
		}
		return true
	})
}
