package bivoc_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachOracles are the reference implementations the equivalence suites
// compare the product paths against: nothing shipped calls them, and a
// test that lost its reference would compare a run with itself. Each is
// named with the test that holds it. Nothing else belongs here.
var reachOracles = []string{
	"bivoc/internal/mining.Index.Naive",   // voctest.CheckQueriers: every mining, store, server and fed equivalence suite
	"bivoc/internal/mining.Index.Backing", // what Naive needs of an index it did not build (TestNaiveViewSharesTheBacking)
	"bivoc/internal/linker.Engine.Naive",  // TestLinkGoldenCarRentalEquivalence, linker/equiv_test.go
}

// TestEveryInternalFunctionIsReachable holds the north star's "code kept
// for call paths nothing produces any more is deleted" for everything
// under internal/: a function there must be reachable from something
// shipped. The roots are main and init of every command and example,
// package-level initialisers, the exported functions of package bivoc and
// the exported methods of the types it aliases, everything in
// cmd/bivocbench (a module of its own that no product change may edit)
// and in internal/voctest (test support), and reachOracles. From them
// the walk follows every mention of a function in a reachable body, and
// for every type a reachable body handles, the methods through which it
// satisfies an interface the program mentions. Tests are not roots: a
// function only tests call is reported, with its position.
func TestEveryInternalFunctionIsReachable(t *testing.T) {
	if _, err := os.Stat("go.mod"); err != nil {
		t.Skip("not run from the module root")
	}
	// Without cgo the source importer takes the pure-Go files of net and
	// os/user, and needs no C compiler.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	l := &reachLoader{
		fset: token.NewFileSet(),
		pkgs: map[string]*reachPkg{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	paths, err := reachPackages()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		if _, err := l.load(path); err != nil {
			t.Fatal(err)
		}
	}

	w := &reachWalk{
		decls:  map[*types.Func]*reachDecl{},
		seen:   map[*types.Func]bool{},
		live:   map[*types.Named]bool{},
		ifaces: map[*types.Interface]bool{},
	}
	// Interfaces the standard library finds by assertion, not by parameter
	// type, so no signature the program mentions carries them.
	w.ifaces[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = true
	for _, q := range [][2]string{{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"}} {
		p, err := l.std.Import(q[0])
		if err != nil {
			t.Fatal(err)
		}
		w.ifaces[p.Scope().Lookup(q[1]).Type().Underlying().(*types.Interface)] = true
	}
	for _, p := range l.pkgs {
		w.index(p)
	}

	oracle := map[string]bool{}
	for _, name := range reachOracles {
		oracle[name] = true
	}
	for fn, d := range w.decls {
		path, name := d.pkg.types.Path(), reachName(fn)
		switch {
		case d.decl.Recv == nil && (fn.Name() == "init" || fn.Name() == "main" && d.pkg.types.Name() == "main"),
			strings.HasPrefix(path, "bivoc/cmd/bivocbench"),
			path == "bivoc/internal/voctest",
			path == "bivoc" && fn.Exported() && d.decl.Recv == nil,
			oracle[name]:
			w.reach(fn)
		}
		delete(oracle, name)
	}
	for name := range oracle {
		t.Errorf("reachOracles names %s, which does not exist", name)
	}
	// bivoc.go's aliases are the named public API: their exported methods
	// stay whole whether or not a binary calls them.
	root := l.pkgs["bivoc"]
	for _, name := range root.types.Scope().Names() {
		tn, ok := root.types.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || !tn.IsAlias() {
			continue
		}
		if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					w.reach(m)
				}
			}
		}
	}
	for _, p := range l.pkgs {
		for _, e := range p.inits {
			w.mention(p, e)
		}
	}
	w.run()

	var dead []string
	for fn, d := range w.decls {
		if !w.seen[fn] && strings.HasPrefix(d.pkg.types.Path(), "bivoc/internal/") {
			pos := l.fset.Position(d.decl.Pos())
			dead = append(dead, fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, reachName(fn)))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is reached by no command, example, export of package bivoc, benchmark probe or oracle", d)
	}
}

// reachPkg is one type-checked package: non-test files only.
type reachPkg struct {
	types *types.Package
	info  *types.Info
	files []*ast.File
	inits []ast.Expr // package-level variable initialisers
}

type reachDecl struct {
	pkg  *reachPkg
	decl *ast.FuncDecl
}

// reachLoader type-checks the module's packages once each and hands the
// same *types.Package to every importer of it, so a function is one
// object however it is reached; the standard library comes from source.
type reachLoader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*reachPkg
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	if path != "bivoc" && !strings.HasPrefix(path, "bivoc/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *reachLoader) load(path string) (*reachPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := "." + strings.TrimPrefix(path, "bivoc")
	parsed, err := parser.ParseDir(l.fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	p := &reachPkg{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, astPkg := range parsed {
		for name, f := range astPkg.Files {
			if ok, err := build.Default.MatchFile(dir, filepath.Base(name)); err != nil || !ok {
				continue
			}
			p.files = append(p.files, f)
		}
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// reachPackages lists the import path of every directory of the module
// that holds a non-test Go file.
func reachPackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			pkg := filepath.ToSlash(filepath.Join("bivoc", filepath.Dir(path)))
			if len(paths) == 0 || paths[len(paths)-1] != pkg {
				paths = append(paths, pkg)
			}
		}
		return nil
	})
	return paths, err
}

// reachName is package path · receiver · name, the form reachOracles and
// the failure message use.
func reachName(fn *types.Func) string {
	name := fn.Pkg().Path() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		rt := recv.Type()
		if ptr, ok := rt.(*types.Pointer); ok {
			rt = ptr.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			name += named.Obj().Name() + "."
		}
	}
	return name + fn.Name()
}

// reachWalk is the worklist: functions reached and not yet walked, the
// module's named types a reached body handles, and the interfaces the
// program mentions.
type reachWalk struct {
	decls  map[*types.Func]*reachDecl
	seen   map[*types.Func]bool
	todo   []*types.Func
	live   map[*types.Named]bool
	fresh  []*types.Named
	ifaces map[*types.Interface]bool
}

// index records p's function declarations, its package-level
// initialisers, and every interface with methods that a type expression,
// a declared type or the signature of a mentioned function names.
func (w *reachWalk) index(p *reachPkg) {
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				w.decls[p.info.Defs[d.Name].(*types.Func)] = &reachDecl{pkg: p, decl: d}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if vs, ok := s.(*ast.ValueSpec); ok && d.Tok == token.VAR {
						p.inits = append(p.inits, vs.Values...)
					}
				}
			}
		}
	}
	for _, tv := range p.info.Types {
		w.interfacesOf(tv.Type)
	}
}

func (w *reachWalk) interfacesOf(t types.Type) {
	switch u := t.Underlying().(type) {
	case *types.Interface:
		if u.NumMethods() > 0 {
			w.ifaces[u] = true
		}
	case *types.Signature:
		for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
			for i := 0; i < tup.Len(); i++ {
				pt := tup.At(i).Type()
				if s, ok := pt.(*types.Slice); ok { // a variadic ...I
					pt = s.Elem()
				}
				if it, ok := pt.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					w.ifaces[it] = true
				}
			}
		}
	}
}

func (w *reachWalk) reach(fn *types.Func) {
	fn = fn.Origin()
	if !w.seen[fn] {
		w.seen[fn] = true
		w.todo = append(w.todo, fn)
	}
}

// mention follows everything node names: functions become reachable,
// named types of the module become live.
func (w *reachWalk) mention(p *reachPkg, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := p.info.Uses[id].(*types.Func); ok {
				w.reach(fn)
			}
		}
		if e, ok := n.(ast.Expr); ok {
			if tv, ok := p.info.Types[e]; ok {
				w.handle(tv.Type)
			}
		}
		return true
	})
}

// handle marks the module's named types inside t live.
func (w *reachWalk) handle(t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		t = t.Origin()
		if t.Obj().Pkg() != nil && strings.HasPrefix(t.Obj().Pkg().Path(), "bivoc") && !w.live[t] {
			w.live[t] = true
			w.fresh = append(w.fresh, t)
		}
	case *types.Pointer:
		w.handle(t.Elem())
	case *types.Slice:
		w.handle(t.Elem())
	case *types.Array:
		w.handle(t.Elem())
	case *types.Chan:
		w.handle(t.Elem())
	case *types.Map:
		w.handle(t.Key())
		w.handle(t.Elem())
	}
}

func (w *reachWalk) run() {
	for len(w.todo) > 0 || len(w.fresh) > 0 {
		for len(w.todo) > 0 {
			fn := w.todo[len(w.todo)-1]
			w.todo = w.todo[:len(w.todo)-1]
			if d := w.decls[fn]; d != nil {
				w.mention(d.pkg, d.decl)
			}
		}
		for len(w.fresh) > 0 {
			named := w.fresh[len(w.fresh)-1]
			w.fresh = w.fresh[:len(w.fresh)-1]
			ptr := types.NewPointer(named) // its method set holds the value methods too
			ms := types.NewMethodSet(ptr)
			for iface := range w.ifaces {
				if !types.Implements(ptr, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					m := iface.Method(i)
					if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
						w.reach(sel.Obj().(*types.Func))
					}
				}
			}
		}
	}
}
