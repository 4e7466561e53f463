package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// callgraph.go is the intra-module call-graph engine behind the
// determinism analyzer family. It is built once per Run from the already
// type-checked syntax: one node per declared function or method, one edge
// per statically resolvable call. Calls through function values and
// interface methods have no body to follow and are treated as opaque
// (assumed deterministic); the //gpulint:deterministic contract comment
// exists so such boundaries can be claimed — and then verified — rather
// than silently trusted.

// Source is one nondeterminism source detected in a function body: a
// wall-clock read, global math/rand use, process identity, map iteration
// order escaping into emitted bytes, a multi-case select, or goroutine
// fan-in collected in arrival order.
type Source struct {
	Desc string    // human form, e.g. "time.Now() (wall clock)"
	Want string    // short tag used in messages: "time.Now", "map range", ...
	Pos  token.Pos // the offending expression or statement
}

// CGEdge is one static call site.
type CGEdge struct {
	To  *types.Func
	Pos token.Pos
}

// CGNode is one declared function with its outgoing calls, detected
// nondeterminism sources, and (if present) its determinism contract.
type CGNode struct {
	Fn       *types.Func
	Pkg      *Package
	Decl     *ast.FuncDecl
	Callees  []CGEdge
	Sources  []Source
	Contract token.Pos // //gpulint:deterministic position, or NoPos
}

// CallGraph is the module-wide static call graph.
type CallGraph struct {
	Nodes map[*types.Func]*CGNode
	Order []*types.Func // stable traversal order: package path, file, offset
}

// BuildCallGraph constructs the graph over every package in pkgs.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	cg := &CallGraph{Nodes: map[*types.Func]*CGNode{}}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			contracts := contractLines(pkg, file)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok || fn == nil {
					continue
				}
				node := &CGNode{Fn: fn, Pkg: pkg, Decl: fd, Contract: contractFor(pkg, fd, contracts)}
				if fd.Body != nil {
					scanBody(pkg, fd, node)
				}
				cg.Nodes[fn] = node
				cg.Order = append(cg.Order, fn)
			}
		}
	}
	sort.Slice(cg.Order, func(i, j int) bool {
		a, b := cg.Nodes[cg.Order[i]], cg.Nodes[cg.Order[j]]
		pa := a.Pkg.Fset.Position(a.Decl.Pos())
		pb := b.Pkg.Fset.Position(b.Decl.Pos())
		if pa.Filename != pb.Filename {
			return pa.Filename < pb.Filename
		}
		return pa.Offset < pb.Offset
	})
	return cg
}

// contractDirective is the comment that declares a function deterministic.
const contractDirective = "//gpulint:deterministic"

// contractLines maps source lines carrying a //gpulint:deterministic
// comment to the comment position.
func contractLines(pkg *Package, file *ast.File) map[int]token.Pos {
	out := map[int]token.Pos{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, contractDirective) {
				out[pkg.Fset.Position(c.Pos()).Line] = c.Pos()
			}
		}
	}
	return out
}

// contractFor returns the contract comment position attached to fd: a
// directive in its doc comment, or one trailing on the declaration line.
func contractFor(pkg *Package, fd *ast.FuncDecl, lines map[int]token.Pos) token.Pos {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if strings.HasPrefix(c.Text, contractDirective) {
				return c.Pos()
			}
		}
	}
	if pos, ok := lines[pkg.Fset.Position(fd.Pos()).Line]; ok {
		return pos
	}
	return token.NoPos
}

// staticCallee resolves a call expression to its static callee, or nil
// for calls through function values, method values and built-ins.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// randConstructors are math/rand package functions that build a seeded
// generator rather than consuming the shared global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// seededSplit reports whether fn is the fleet's per-device RNG split:
// Device and DeviceName derive a generator from seed ^ hash(index), a
// pure function of the cohort. That is deterministic by construction, so
// the taint pass treats them as leaves rather than following their call
// graph — the same standing math/rand's constructors get above.
func seededSplit(fn *types.Func) bool {
	pkg := fn.Pkg()
	return pkg != nil && strings.HasSuffix(pkg.Path(), "internal/fleet") &&
		(fn.Name() == "Device" || fn.Name() == "DeviceName")
}

// callSource classifies a statically resolved callee as a nondeterminism
// source, or returns nil.
func callSource(fn *types.Func, pos token.Pos) *Source {
	pkg := fn.Pkg()
	if pkg == nil {
		return nil
	}
	switch pkg.Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return &Source{Desc: "time." + fn.Name() + "() (wall clock)", Want: "time." + fn.Name(), Pos: pos}
		}
	case "math/rand", "math/rand/v2":
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() == nil && !randConstructors[fn.Name()] {
			return &Source{Desc: "global math/rand." + fn.Name() + " (process-shared, seed-independent)", Want: "math/rand", Pos: pos}
		}
	case "os":
		switch fn.Name() {
		case "Getpid", "Getppid", "Hostname", "Environ":
			return &Source{Desc: "os." + fn.Name() + "() (process identity)", Want: "os." + fn.Name(), Pos: pos}
		}
	}
	return nil
}

// scanBody walks one function body (including nested function literals)
// collecting call edges and nondeterminism sources into node.
func scanBody(pkg *Package, fd *ast.FuncDecl, node *CGNode) {
	info := pkg.Info

	// Loop extents, for the fan-in rule: a `go` inside a loop marks the
	// function as a fan-out site.
	var loops []ast.Node
	goInLoop := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n)
		case *ast.GoStmt:
			for _, l := range loops {
				if l.Pos() <= n.Pos() && n.Pos() <= l.End() {
					goInLoop = true
				}
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := staticCallee(info, n); fn != nil {
				if src := callSource(fn, n.Pos()); src != nil {
					node.Sources = append(node.Sources, *src)
				} else if !seededSplit(fn) {
					node.Callees = append(node.Callees, CGEdge{To: fn, Pos: n.Pos()})
				}
			}
			if goInLoop && receivesInto(n) {
				node.Sources = append(node.Sources, Source{
					Desc: "goroutine fan-in appended in arrival order (no index-ordered merge)",
					Want: "fan-in",
					Pos:  n.Pos(),
				})
			}
		case *ast.SelectStmt:
			comm := 0
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					comm++
				}
			}
			if comm >= 2 {
				node.Sources = append(node.Sources, Source{
					Desc: fmt.Sprintf("select across %d communication cases (runtime picks among ready cases at random)", comm),
					Want: "select",
					Pos:  n.Pos(),
				})
			}
		case *ast.RangeStmt:
			if src := mapRangeSource(pkg, fd, n); src != nil {
				node.Sources = append(node.Sources, *src)
			}
		}
		return true
	})

	sort.Slice(node.Sources, func(i, j int) bool { return node.Sources[i].Pos < node.Sources[j].Pos })
}

// receivesInto reports whether call is an append whose arguments include
// a channel receive — the arrival-order fan-in shape.
func receivesInto(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	for _, arg := range call.Args[1:] {
		if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			return true
		}
	}
	return false
}

// isEmitName matches method/function names through which iteration order
// escapes into output bytes or a hash. Sprint* is deliberately absent:
// it is pure — formatting into a value that is later appended and sorted
// is the clean collect-then-order shape.
func isEmitName(name string) bool {
	for _, prefix := range []string{"Write", "Print", "Fprint", "Encode", "Sum"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// mapRangeSource classifies a range statement over a map: if the body
// emits bytes, sends on a channel, appends to a slice that is never
// sorted afterwards in the same function, or concatenates into a string,
// the iteration order reaches the output and the range is a source.
// The canonical clean shape — collect keys, sort, iterate the slice — is
// recognized via the sort-after escape.
func mapRangeSource(pkg *Package, fd *ast.FuncDecl, rng *ast.RangeStmt) *Source {
	info := pkg.Info
	t := info.TypeOf(rng.X)
	if t == nil {
		return nil
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return nil
	}

	var appendTargets []types.Object
	emits := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			emits = true
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN {
				if bt := info.TypeOf(n.Lhs[0]); bt != nil {
					if b, ok := bt.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						emits = true
					}
				}
			}
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if fun.Name == "append" && len(n.Args) > 0 {
					if id, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok {
						if obj := info.Uses[id]; obj != nil {
							appendTargets = append(appendTargets, obj)
						}
					}
				} else if fn, ok := info.Uses[fun].(*types.Func); ok && isEmitName(fn.Name()) {
					emits = true
				}
			case *ast.SelectorExpr:
				if isEmitName(fun.Sel.Name) {
					emits = true
				}
			}
		}
		return true
	})

	if !emits {
		if len(appendTargets) == 0 {
			return nil // order stays local: counting, map-to-map, etc.
		}
		unsorted := false
		for _, obj := range appendTargets {
			if !sortedInFunc(pkg, fd, obj) {
				unsorted = true
			}
		}
		if !unsorted {
			return nil
		}
	}
	return &Source{
		Desc: "map range order escapes (emitted or appended without a sort); iterate sorted keys instead",
		Want: "map range",
		Pos:  rng.Pos(),
	}
}

// sortedInFunc reports whether obj is passed to a sort.*/slices.Sort*
// call anywhere in fd — the collect-keys-then-sort idiom.
func sortedInFunc(pkg *Package, fd *ast.FuncDecl, obj types.Object) bool {
	info := pkg.Info
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		fn := staticCallee(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		pkgPath := fn.Pkg().Path()
		if pkgPath != "sort" && pkgPath != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && info.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// sinkRole returns a non-empty role description when fn is a sink root:
// an entry point of the byte-identity contract. In the real module the
// table below names the artifact-emitting packages; in standalone fixture
// packages (no slash in the import path) matching is by name alone so
// fixtures can model sinks without importing the module.
func sinkRole(pkg *Package, fn *types.Func) string {
	name := fn.Name()
	lower := strings.ToLower(name)
	recv := receiverTypeName(fn)
	if strings.Contains(lower, "fingerprint") {
		return "fingerprint/cache-key constructor"
	}
	if strings.Contains(pkg.Path, "/") {
		switch {
		case strings.HasSuffix(pkg.Path, "internal/obs"):
			if strings.HasPrefix(name, "Write") {
				return "obs exposition writer"
			}
		case strings.HasSuffix(pkg.Path, "internal/trace"):
			if strings.HasPrefix(name, "Write") || name == "FromRecorder" {
				return "trace artifact writer"
			}
		case strings.HasSuffix(pkg.Path, "internal/report"):
			if fn.Exported() {
				return "report emitter"
			}
		case strings.HasSuffix(pkg.Path, "internal/reproduce"):
			if name == "Run" || name == "RunContext" || name == "Quick" ||
				strings.HasPrefix(name, "write") || strings.HasPrefix(name, "save") {
				return "reproduction artifact writer"
			}
		case strings.HasSuffix(pkg.Path, "internal/characterize"):
			if recv == "Journal" || strings.Contains(name, "Journal") {
				return "checkpoint journal codec"
			}
		case strings.HasSuffix(pkg.Path, "internal/validity"):
			if strings.HasPrefix(name, "Write") || name == "Finalize" {
				return "triage report writer"
			}
		case strings.HasSuffix(pkg.Path, "internal/fleet"):
			// The fleet shard-count byte-identity contract: everything the
			// streaming aggregator folds or merges lands verbatim in the
			// fleet report, so the fold/merge/finalize surface is a sink.
			if name == "Finalize" || name == "Merge" ||
				strings.HasPrefix(name, "Consume") || strings.HasPrefix(name, "Write") {
				return "fleet aggregate writer"
			}
		}
		return ""
	}
	// Standalone fixture package: name-shape matching only.
	for _, prefix := range []string{"Write", "Export", "Emit"} {
		if strings.HasPrefix(name, prefix) {
			return "artifact writer"
		}
	}
	if recv == "Journal" || strings.Contains(name, "Journal") {
		return "checkpoint journal codec"
	}
	if name == "Finalize" || name == "Merge" {
		return "fleet aggregate writer"
	}
	return ""
}

// receiverTypeName returns the name of fn's receiver type, or "".
func receiverTypeName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	return namedTypeName(sig.Recv().Type())
}

// taintInfo records, for one function, the representative nondeterminism
// source reaching it and the first hop of the call chain toward it.
type taintInfo struct {
	src     Source
	srcFn   *types.Func // function whose body contains src
	next    *types.Func // callee one hop closer to the source (nil: local)
	callPos token.Pos   // call site in this function leading to next
	hops    int
}

// sinkInfo records, for one function, the sink root it is reachable from
// and the parent hop of the path back to that root.
type sinkInfo struct {
	root    *types.Func
	role    string
	parent  *types.Func // caller one hop closer to the root (nil: is root)
	callPos token.Pos   // call site in parent reaching this function
	hops    int
}

// detFacts bundles the per-Run determinism analyses shared by the
// determinism and detcontract analyzers.
type detFacts struct {
	cg    *CallGraph
	taint map[*types.Func]*taintInfo
	sink  map[*types.Func]*sinkInfo
}

// computeDetFacts builds the call graph and runs both fixpoints: taint
// propagating from sources up through callers, and sink reachability
// propagating from artifact entry points down through callees. Both
// traversals are breadth-first in the graph's stable order, so the
// representative source, root and path for every function — and therefore
// every diagnostic and -why trace — are deterministic.
func computeDetFacts(pkgs []*Package) *detFacts {
	f := &detFacts{
		cg:    BuildCallGraph(pkgs),
		taint: map[*types.Func]*taintInfo{},
		sink:  map[*types.Func]*sinkInfo{},
	}

	// Taint: seed with functions containing direct sources, then walk
	// reverse edges (callee -> callers).
	callers := map[*types.Func][]CGEdge{} // callee -> {caller, call pos}
	for _, fn := range f.cg.Order {
		for _, e := range f.cg.Nodes[fn].Callees {
			callers[e.To] = append(callers[e.To], CGEdge{To: fn, Pos: e.Pos})
		}
	}
	var queue []*types.Func
	for _, fn := range f.cg.Order {
		node := f.cg.Nodes[fn]
		if len(node.Sources) > 0 {
			f.taint[fn] = &taintInfo{src: node.Sources[0], srcFn: fn}
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		t := f.taint[fn]
		for _, e := range callers[fn] {
			if _, ok := f.taint[e.To]; ok {
				continue
			}
			f.taint[e.To] = &taintInfo{src: t.src, srcFn: t.srcFn, next: fn, callPos: e.Pos, hops: t.hops + 1}
			queue = append(queue, e.To)
		}
	}

	// Sink reachability: seed with sink roots, then walk forward edges.
	queue = queue[:0]
	for _, fn := range f.cg.Order {
		node := f.cg.Nodes[fn]
		if role := sinkRole(node.Pkg, fn); role != "" {
			f.sink[fn] = &sinkInfo{root: fn, role: role}
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		s := f.sink[fn]
		for _, e := range f.cg.Nodes[fn].Callees {
			if _, ok := f.cg.Nodes[e.To]; !ok {
				continue
			}
			if _, ok := f.sink[e.To]; ok {
				continue
			}
			f.sink[e.To] = &sinkInfo{root: s.root, role: s.role, parent: fn, callPos: e.Pos, hops: s.hops + 1}
			queue = append(queue, e.To)
		}
	}
	return f
}

// displayName renders fn as pkg.Name or pkg.Recv.Name.
func displayName(fn *types.Func) string {
	name := fn.Name()
	if recv := receiverTypeName(fn); recv != "" {
		name = recv + "." + name
	}
	if fn.Pkg() != nil {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

// sinkTrace reconstructs the call path from fn's sink root down to fn,
// as -why trace steps (root first).
func (f *detFacts) sinkTrace(fn *types.Func) []TraceStep {
	// chain[0] = fn, chain[last] = sink root.
	var chain []*types.Func
	for cur := fn; cur != nil; cur = f.sink[cur].parent {
		chain = append(chain, cur)
	}
	root := chain[len(chain)-1]
	rootNode := f.cg.Nodes[root]
	steps := []TraceStep{{
		Pos:  rootNode.Pkg.Fset.Position(rootNode.Decl.Pos()),
		Desc: fmt.Sprintf("sink %s (%s)", displayName(root), f.sink[root].role),
	}}
	for i := len(chain) - 2; i >= 0; i-- {
		child := chain[i]
		s := f.sink[child]
		parentNode := f.cg.Nodes[s.parent]
		steps = append(steps, TraceStep{
			Pos:  parentNode.Pkg.Fset.Position(s.callPos),
			Desc: fmt.Sprintf("%s calls %s", displayName(s.parent), displayName(child)),
		})
	}
	return steps
}

// taintTrace reconstructs the call chain from fn down to the source
// reaching it, as -why trace steps (fn's hop first, source last).
func (f *detFacts) taintTrace(fn *types.Func) []TraceStep {
	var steps []TraceStep
	cur := fn
	for {
		t := f.taint[cur]
		if t.next == nil {
			break
		}
		node := f.cg.Nodes[cur]
		steps = append(steps, TraceStep{
			Pos:  node.Pkg.Fset.Position(t.callPos),
			Desc: fmt.Sprintf("%s calls %s", displayName(cur), displayName(t.next)),
		})
		cur = t.next
	}
	t := f.taint[fn]
	srcNode := f.cg.Nodes[t.srcFn]
	steps = append(steps, TraceStep{
		Pos:  srcNode.Pkg.Fset.Position(t.src.Pos),
		Desc: fmt.Sprintf("source: %s in %s", t.src.Desc, displayName(t.srcFn)),
	})
	return steps
}
