package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The module load shared by TestSelfRun and TestReachability: every
// package under ./... plus the _perfbench harness, whose go.mod replaces
// this module with the checkout, so the same loader resolves its imports.
var (
	moduleOnce sync.Once
	modulePkgs []*Package // ./..., what gpulint checks
	benchPkg   *Package   // _perfbench, a root of the reachability walk
	moduleErr  error
)

func loadModule(t *testing.T) ([]*Package, *Package) {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	moduleOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			moduleErr = err
			return
		}
		pkgs, err := Load(root, "./...", "_perfbench")
		if err != nil {
			moduleErr = fmt.Errorf("loading module: %w", err)
			return
		}
		for _, p := range pkgs {
			if p.Dir == filepath.Join(root, "_perfbench") {
				benchPkg = p
			} else {
				modulePkgs = append(modulePkgs, p)
			}
		}
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	if len(modulePkgs) < 20 {
		t.Fatalf("loaded only %d packages; the module sweep is not covering the tree", len(modulePkgs))
	}
	return modulePkgs, benchPkg
}

// reachKeep names the internal functions that no program reaches but
// that stay, each with its reason. TestReachability fails on an entry
// that a program now reaches or that no longer exists.
var reachKeep = map[string]string{
	"kernelspec.Write": "Parse's inverse in FuzzParse and in the Table II round trip",
	"core.RidgeError":  "produces EXPERIMENTS.md's BenchmarkAblationRidge row",
	"regress.Ridge":    "produces EXPERIMENTS.md's BenchmarkAblationRidge row",
}

// TestReachability fails on any function or method declared under
// internal/ that no program reaches and that reachKeep does not name.
// The roots are every main, the init functions and package-level
// initializers of the packages the programs import, the root package's
// exported API with every method it exposes, and the _perfbench harness.
// A reached body reaches every function and method it names, called or
// taken as a value. A method is also reached when its type implements an
// interface that reached code or an importer of the root package calls
// it through, or any interface of the standard library.
func TestReachability(t *testing.T) {
	pkgs, bench := loadModule(t)
	all := append(append([]*Package(nil), pkgs...), bench)
	root := filepath.Dir(bench.Dir)
	r := newReacher(all)
	for _, p := range all {
		switch {
		case p.Name == "main":
			r.main(p)
		case p.Dir == root:
			r.api(p)
		}
	}
	r.run()

	exists := map[string]bool{}
	var dead []string
	for fn, d := range r.decls {
		name := funcName(fn)
		exists[name] = true
		if _, keep := reachKeep[name]; keep {
			if r.reached[fn] {
				t.Errorf("reachKeep names %s, which a program now reaches; drop the entry", name)
			}
			continue
		}
		pos := d.pkg.Fset.Position(d.decl.Pos())
		rel, _ := filepath.Rel(root, pos.Filename)
		if !r.reached[fn] && strings.HasPrefix(filepath.ToSlash(rel), "internal/") {
			dead = append(dead, fmt.Sprintf("%s:%d: %s: no program reaches it; delete it or name the reason it stays in reachKeep",
				filepath.ToSlash(rel), pos.Line, name))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Error(d)
	}
	for name := range reachKeep {
		if !exists[name] {
			t.Errorf("reachKeep names %s, which no longer exists; drop the entry", name)
		}
	}
}

// funcName renders fn the way reachKeep names it: "pkg.F", "pkg.T.M" or
// "pkg.(*T).M".
func funcName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	if p, ok := recv.Type().(*types.Pointer); ok {
		return fmt.Sprintf("%s.(*%s).%s", fn.Pkg().Name(), p.Elem().(*types.Named).Obj().Name(), fn.Name())
	}
	return fmt.Sprintf("%s.%s.%s", fn.Pkg().Name(), recv.Type().(*types.Named).Obj().Name(), fn.Name())
}

type funcDecl struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// reacher is the worklist behind TestReachability.
type reacher struct {
	byPath  map[string]*Package
	decls   map[*types.Func]funcDecl  // every function the module declares
	named   map[string][]*types.Named // the module's types by the names of their methods, for interface dispatch
	ifaces  map[string]bool           // interfaces called through, by type string
	pending []*types.Interface        // of those, the ones not yet dispatched
	reached map[*types.Func]bool
	work    []*types.Func // reached, body not yet walked
	inited  map[*Package]bool
}

func newReacher(pkgs []*Package) *reacher {
	r := &reacher{
		byPath:  map[string]*Package{},
		decls:   map[*types.Func]funcDecl{},
		named:   map[string][]*types.Named{},
		ifaces:  map[string]bool{},
		reached: map[*types.Func]bool{},
		inited:  map[*Package]bool{},
	}
	imported := map[string]*types.Package{}
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if imported[tp.Path()] == nil {
			imported[tp.Path()] = tp
			for _, imp := range tp.Imports() {
				visit(imp)
			}
		}
	}
	for _, p := range pkgs {
		r.byPath[p.Path] = p
		visit(p.Types)
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
						r.decls[fn] = funcDecl{p, fd}
					}
				}
			}
		}
		for _, obj := range p.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
					ms := types.NewMethodSet(types.NewPointer(n))
					for i := 0; i < ms.Len(); i++ {
						m := ms.At(i).Obj().Name()
						r.named[m] = append(r.named[m], n)
					}
				}
			}
		}
	}
	// The standard library calls the module's methods through its own
	// interfaces: fmt prints errors, Stringers and Formatters,
	// encoding/json marshals, sort and container/heap order, flag sets
	// Values. A method that implements any interface declared in a
	// standard-library package the programs import is reached, and so is
	// one with a shape that errors.Is, errors.As and errors.Unwrap assert
	// inline.
	for path, tp := range imported {
		if r.byPath[path] != nil {
			continue // a module interface counts once reached code calls through it
		}
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if n, ok := types.Unalias(tn.Type()).(*types.Named); ok && n.TypeParams().Len() == 0 && types.IsInterface(n) {
					r.iface(n)
				}
			}
		}
	}
	errType := types.Universe.Lookup("error").Type()
	anyType := types.Universe.Lookup("any").Type()
	r.iface(errType)
	r.iface(shape("Unwrap", nil, errType))
	r.iface(shape("Unwrap", nil, types.NewSlice(errType)))
	r.iface(shape("Is", errType, types.Typ[types.Bool]))
	r.iface(shape("As", anyType, types.Typ[types.Bool]))
	return r
}

// shape is the unnamed one-method interface interface{ name(param) result },
// with no parameter when param is nil.
func shape(name string, param, result types.Type) *types.Interface {
	var params *types.Tuple
	if param != nil {
		params = types.NewTuple(types.NewVar(token.NoPos, nil, "", param))
	}
	sig := types.NewSignatureType(nil, nil, nil, params, types.NewTuple(types.NewVar(token.NoPos, nil, "", result)), false)
	return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
}

// main reaches the main function of package p and what loading p runs.
func (r *reacher) main(p *Package) {
	r.mark(p.Types.Scope().Lookup("main").(*types.Func))
	r.initPkg(p)
}

// api reaches what an importer of p can call: p's exported functions,
// what loading p runs, and the exported methods of every type that p's
// exported declarations expose. A type is exposed when it is an alias
// target, appears in an exported signature, variable or constant, or is
// the type of an exported field or method result of an exposed type; an
// exposed interface is one the importer can call through.
func (r *reacher) api(p *Package) {
	r.initPkg(p)
	seen := map[string]bool{} // by type string: instances of a generic type need not be one pointer
	var expose func(types.Type)
	expose = func(t types.Type) {
		t = types.Unalias(t)
		key := types.TypeString(t, nil)
		if seen[key] {
			return
		}
		seen[key] = true
		switch t := t.(type) {
		case *types.Named:
			for i := 0; i < t.TypeArgs().Len(); i++ {
				expose(t.TypeArgs().At(i))
			}
			if t.Obj().Pkg() == nil || r.byPath[t.Obj().Pkg().Path()] == nil {
				return // declared outside the module
			}
			if !types.IsInterface(t) {
				ms := types.NewMethodSet(types.NewPointer(t))
				for i := 0; i < ms.Len(); i++ {
					if fn := ms.At(i).Obj().(*types.Func); fn.Exported() {
						r.mark(fn)
						expose(fn.Type())
					}
				}
			}
			expose(t.Underlying())
		case *types.Pointer:
			expose(t.Elem())
		case *types.Slice:
			expose(t.Elem())
		case *types.Array:
			expose(t.Elem())
		case *types.Chan:
			expose(t.Elem())
		case *types.Map:
			expose(t.Key())
			expose(t.Elem())
		case *types.Signature:
			expose(t.Params())
			expose(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				expose(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					expose(f.Type())
				}
			}
		case *types.Interface:
			r.iface(t)
			for i := 0; i < t.NumMethods(); i++ {
				expose(t.Method(i).Type())
			}
		}
	}
	scope := p.Types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		if fn, ok := obj.(*types.Func); ok {
			r.mark(fn)
		}
		expose(obj.Type())
	}
}

// initPkg reaches what loading p runs: its init functions and
// package-level initializers, and those of every module package it
// imports.
func (r *reacher) initPkg(p *Package) {
	if r.inited[p] {
		return
	}
	r.inited[p] = true
	for _, imp := range p.Types.Imports() {
		if q := r.byPath[imp.Path()]; q != nil {
			r.initPkg(q)
		}
	}
	for fn, d := range r.decls {
		if d.pkg == p && d.decl.Recv == nil && d.decl.Name.Name == "init" {
			r.mark(fn)
		}
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				r.walk(p, gd)
			}
		}
	}
}

func (r *reacher) mark(fn *types.Func) {
	fn = fn.Origin()
	if !r.reached[fn] {
		r.reached[fn] = true
		r.work = append(r.work, fn)
	}
}

// iface records an interface that reached code calls methods through.
func (r *reacher) iface(t types.Type) {
	if key := types.TypeString(t, nil); !r.ifaces[key] {
		r.ifaces[key] = true
		r.pending = append(r.pending, t.Underlying().(*types.Interface))
	}
}

// walk reaches every function and method that n names.
func (r *reacher) walk(p *Package, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := p.Info.Uses[id].(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					r.iface(recv.Type())
				} else {
					r.mark(fn)
				}
			}
		}
		return true
	})
}

// run drains the worklist, dispatching each interface called through to
// the methods of the module's types that implement it, until nothing
// new is reached.
func (r *reacher) run() {
	for len(r.work) > 0 || len(r.pending) > 0 {
		for len(r.work) > 0 {
			fn := r.work[len(r.work)-1]
			r.work = r.work[:len(r.work)-1]
			if d, ok := r.decls[fn]; ok && d.decl.Body != nil {
				r.walk(d.pkg, d.decl.Body)
			}
		}
		for len(r.pending) > 0 {
			it := r.pending[0]
			r.pending = r.pending[1:]
			if it.NumMethods() == 0 {
				continue
			}
			// Only a type with the interface's first method can implement it.
			for _, n := range r.named[it.Method(0).Name()] {
				ptr := types.NewPointer(n)
				if !types.Implements(ptr, it) {
					continue // a value type's method set is within its pointer's
				}
				ms := types.NewMethodSet(ptr)
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					r.mark(ms.Lookup(m.Pkg(), m.Name()).Obj().(*types.Func))
				}
			}
		}
	}
}
