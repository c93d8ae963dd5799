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
// compare the product paths against, and the baselines the ablation
// benchmarks measure the shipped design against: nothing shipped calls
// them. A test that lost its reference would compare a run with itself,
// and an ablation that lost its baseline would measure nothing. Each is
// named with the test or benchmark that holds it. Nothing else belongs
// here: an oracle or an ablation baseline, and no method because its
// type is public.
var reachOracles = []string{
	"bivoc/internal/mining.Index.Naive",   // voctest.CheckQueriers: every mining, store, server and fed equivalence suite
	"bivoc/internal/mining.Index.Backing", // what Naive needs of an index it did not build (TestNaiveViewSharesTheBacking)
	"bivoc/internal/linker.Engine.Naive",  // TestLinkGoldenCarRentalEquivalence, linker/equiv_test.go

	"bivoc/internal/linker.Engine.LinkFullScan",       // BenchmarkAblationFaginVsFullScan
	"bivoc/internal/linker.Engine.LinkIndividualBest", // BenchmarkAblationCombinedVsIndividualEntities
	"bivoc/internal/linker.Engine.LearnWeights",       // BenchmarkEMWeightLearning, BenchmarkAblationEMVsUniformWeights
	"bivoc/internal/linker.Engine.Evaluate",           // BenchmarkAblationEMVsUniformWeights
}

// TestEveryInternalFunctionIsReachable holds the north star's "code kept
// for call paths nothing produces any more is deleted" for everything
// under internal/: a function there must be reachable from something
// shipped. The roots are main and init of every command and example,
// package-level initialisers, the exported functions of package bivoc,
// everything in cmd/bivocbench (a module of its own that no product
// change may edit) and in internal/voctest (test support), and
// reachOracles. A method is no root because bivoc.go aliases its type: it
// lives by its callers like any other function. From the roots the walk
// follows every mention of a function in a reachable body, and for every
// type a reachable body handles, the methods through which it satisfies
// an interface the program mentions. Tests are not roots: a function only
// tests call is reported, with its position.
func TestEveryInternalFunctionIsReachable(t *testing.T) {
	l, _ := loadModule(t)
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
		t.Errorf("%s is reached by no command, example, export of package bivoc, benchmark probe, oracle or ablation baseline", d)
	}
}

// optionPresetsUnset are the fields TestEveryOptionIsSet lets through:
// cmd/bivocbench reads them off DefaultChurnExperimentConfig to report the
// link floors its voc_batch workload ran at, and nothing sets them. Nothing
// else belongs here.
var optionPresetsUnset = []string{
	"bivoc/internal/core.ChurnExperimentConfig.MinLinkScore",
	"bivoc/internal/core.ChurnExperimentConfig.MinLinkScoreSMS",
}

// TestEveryOptionIsSet holds "one place each knob is declared" for the
// options under internal/: every field of a struct type named *Config,
// *Options or *Policy there, and of the pipeline's FaultTolerance, must
// be written by something other than a function of its own package —
// another package, a command or example, cmd/bivocbench, a test, or a
// package-level preset of its own package (noise.SMSNoise). A write is a composite-literal key or an assignment
// through a selector chain, so `cfg.Decoder.BeamWidth = 4` writes Decoder
// and BeamWidth. A field only its own package's functions write holds one
// value, and is a constant next to its reader.
func TestEveryOptionIsSet(t *testing.T) {
	l, paths := loadModule(t)
	o := &optionScan{fields: map[*types.Var]string{}, written: map[string]bool{}}
	for _, path := range paths {
		o.declare(l.pkgs[path])
	}
	for _, path := range paths {
		o.scan(l.pkgs[path], l.pkgs[path].files, false)
	}
	for _, path := range paths {
		internal, external, err := l.parseTests(path)
		if err != nil {
			t.Fatal(err)
		}
		// In-package tests are checked with their package, external ones
		// against that augmented package, as go test builds them.
		aug := l.pkgs[path]
		if len(internal) > 0 {
			if aug, err = l.check(path, append(append([]*ast.File{}, aug.files...), internal...), l); err != nil {
				t.Fatal(err)
			}
			o.declare(aug)
			o.scan(aug, internal, true)
		}
		if len(external) > 0 {
			ext, err := l.check(path+"_test", external, l.against(path, aug.types, o.declare))
			if err != nil {
				t.Fatal(err)
			}
			o.scan(ext, external, true)
		}
	}

	allowed := map[string]bool{}
	for _, key := range optionPresetsUnset {
		allowed[key] = true
	}
	var unset []string
	for f, key := range o.fields {
		if f.Pkg() != l.pkgs[f.Pkg().Path()].types || !strings.HasPrefix(key, "bivoc/internal/") {
			continue // a test-augmented copy, or outside internal/
		}
		if allowed[key] {
			if o.written[key] {
				t.Errorf("optionPresetsUnset names %s, which is set", key)
			}
			delete(allowed, key)
			continue
		}
		if !o.written[key] {
			pos := l.fset.Position(f.Pos())
			unset = append(unset, fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, key))
		}
	}
	for key := range allowed {
		t.Errorf("optionPresetsUnset names %s, which does not exist", key)
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s is set by no other package, command, example, test, benchmark probe or preset: make it a constant next to its reader", u)
	}
}

// isOptionType reports whether a type's fields are options: a struct
// named *Config, *Options or *Policy, or the pipeline's FaultTolerance.
func isOptionType(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") ||
		strings.HasSuffix(name, "Policy") || name == "FaultTolerance"
}

// optionScan keys the option fields of every checked copy of a package by
// path · type · field, and records which keys something counted writes.
type optionScan struct {
	fields  map[*types.Var]string
	written map[string]bool
}

func (o *optionScan) declare(p *reachPkg) {
	scope := p.types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || !isOptionType(name) {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				o.fields[st.Field(i)] = p.types.Path() + "." + name + "." + st.Field(i).Name()
			}
		}
	}
}

// scan records the writes in files of p that count: all of them in a test
// file or outside the field's package, and a package-level preset's.
func (o *optionScan) scan(p *reachPkg, files []*ast.File, test bool) {
	for _, f := range files {
		for _, d := range f.Decls {
			_, inFunc := d.(*ast.FuncDecl)
			write := func(obj types.Object) {
				v, ok := obj.(*types.Var)
				if !ok || !v.IsField() {
					return
				}
				if key, ok := o.fields[v.Origin()]; ok && (test || !inFunc || v.Pkg() != p.types) {
					o.written[key] = true
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								write(p.info.Uses[id])
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						assigned(p, lhs, write)
					}
				case *ast.IncDecStmt:
					assigned(p, n.X, write)
				}
				return true
			})
		}
	}
}

// assigned hands each field selected along an assigned expression to
// write: `a.B[i].C = x` writes C and B.
func assigned(p *reachPkg, e ast.Expr, write func(types.Object)) {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			write(p.info.Uses[x.Sel])
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return
		}
	}
}

// loadModule type-checks every package of the module, non-test files
// only, and lists their import paths.
func loadModule(t *testing.T) (*reachLoader, []string) {
	t.Helper()
	if _, err := os.Stat("go.mod"); err != nil {
		t.Skip("not run from the module root")
	}
	// Without cgo the source importer takes the pure-Go files of net and
	// os/user, and needs no C compiler.
	cgo := build.Default.CgoEnabled
	t.Cleanup(func() { build.Default.CgoEnabled = cgo })
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
	return l, paths
}

// reachPkg is one type-checked package.
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
	parsed, err := l.parse(path, false)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, fs := range parsed {
		files = append(files, fs...)
	}
	p, err := l.check(path, files, l)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// parseTests returns the in-package and the external test files of path.
func (l *reachLoader) parseTests(path string) (internal, external []*ast.File, err error) {
	parsed, err := l.parse(path, true)
	if err != nil {
		return nil, nil, err
	}
	for name, files := range parsed {
		if name == l.pkgs[path].types.Name() {
			internal = files
		} else {
			external = files
		}
	}
	return internal, external, nil
}

// parse reads the files of path's directory that the build selects, its
// test files or the others, by package name.
func (l *reachLoader) parse(path string, tests bool) (map[string][]*ast.File, error) {
	dir := "." + strings.TrimPrefix(path, "bivoc")
	parsed, err := parser.ParseDir(l.fset, dir, func(fi os.FileInfo) bool {
		return strings.HasSuffix(fi.Name(), "_test.go") == tests
	}, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	byPkg := map[string][]*ast.File{}
	for pkgName, astPkg := range parsed {
		for name, f := range astPkg.Files {
			if ok, err := build.Default.MatchFile(dir, filepath.Base(name)); err != nil || !ok {
				continue
			}
			byPkg[pkgName] = append(byPkg[pkgName], f)
		}
	}
	return byPkg, nil
}

func (l *reachLoader) check(path string, files []*ast.File, imp types.Importer) (*reachPkg, error) {
	p := &reachPkg{files: files, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	conf := types.Config{Importer: imp}
	var err error
	if p.types, err = conf.Check(path, l.fset, files, p.info); err != nil {
		return nil, err
	}
	return p, nil
}

// against is the importer of path's external test package: path is aug,
// and every module package that imports it is re-checked against aug (and
// handed to checked), as go test recompiles them, so a voctest world hands
// the test the same mining.Index type the test's own mining import names.
func (l *reachLoader) against(path string, aug *types.Package, checked func(*reachPkg)) types.Importer {
	memo := map[string]*types.Package{path: aug}
	var imp reachImporter
	imp = func(p string) (*types.Package, error) {
		if pkg, ok := memo[p]; ok {
			return pkg, nil
		}
		pkg, err := l.Import(p)
		if err != nil || !reachImports(pkg, path, map[*types.Package]bool{}) {
			return pkg, err
		}
		re, err := l.check(p, l.pkgs[p].files, imp)
		if err != nil {
			return nil, err
		}
		checked(re)
		memo[p] = re.types
		return re.types, nil
	}
	return imp
}

// reachImports reports whether pkg imports path, directly or not.
func reachImports(pkg *types.Package, path string, seen map[*types.Package]bool) bool {
	for _, imp := range pkg.Imports() {
		if imp.Path() == path || !seen[imp] && reachImports(imp, path, seen) {
			return true
		}
		seen[imp] = true
	}
	return false
}

// reachImporter resolves an import path with a function.
type reachImporter func(path string) (*types.Package, error)

func (f reachImporter) Import(path string) (*types.Package, error) { return f(path) }

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
