package microdata

import (
	"bufio"
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
	"sync"
	"testing"
)

// callerAllowlist names the only internal declarations that may lack a
// non-test use: a whole test-support package by import path, or one name as
// "path.Name" (a method as "path.Type.Method"), each with its reason.
var callerAllowlist = map[string]string{
	"microdata/internal/algorithm/algtest":   "test-support package: fixtures and the naive reference shared by tests in several packages",
	"microdata/internal/freqset.Store.Len":   "seam: the experiment tests count a shared store's resident sets",
	"microdata/internal/telemetry.WithClock": "seam: the report tests inject a fake clock for exact phase durations",
}

// TestInternalNamesHaveCallers type-checks the module's non-test files and
// fails on every exported name in internal/... and every unexported
// package-level declaration anywhere in the module that no non-test code
// uses. Every file under benchmark/, its tests included, counts as a caller,
// since that module is built apart from this one. Exempt are methods that
// satisfy a named interface (or are Unwrap() error), the façade, which
// api.txt governs, and callerAllowlist.
func TestInternalNamesHaveCallers(t *testing.T) {
	unused, err := uncalled(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range unused {
		t.Error(u)
	}
}

// TestUncalledFindsPlantedNames plants a module and checks what uncalled
// names: unused functions exported or not, but not a String method that
// fmt.Stringer asks for or a function only a benchmark test calls.
func TestUncalledFindsPlantedNames(t *testing.T) {
	root := t.TempDir()
	plant := func(path, src string) {
		t.Helper()
		path = filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	plant("go.mod", "module planted\n\ngo 1.22\n")
	plant("internal/p/p.go", `package p

// Used is called by the root package.
func Used() Name { return Name(helper()) }

func helper() string { return "x" }

// Unused has no caller.
func Unused() int { return 1 }

func unusedHelper() int { return unusedHelper() }

// Name satisfies fmt.Stringer.
type Name string

func (n Name) String() string { return string(n) }

// BenchOnly is called by a benchmark test alone.
func BenchOnly() int { return 2 }
`)
	plant("root.go", `package planted

import (
	"fmt"

	"planted/internal/p"
)

// Print prints p.Used.
func Print() { fmt.Println(p.Used()) }
`)
	plant("internal/p/p_test.go", `package p

import "testing"

func TestUnused(t *testing.T) { _ = Unused() + unusedHelper() }
`)
	plant("benchmark/go.mod", "module planted/benchmark\n\ngo 1.22\n")
	plant("benchmark/main.go", "package main\n\nfunc main() {}\n")
	plant("benchmark/main_test.go", `package main

import (
	"testing"

	"planted/internal/p"
)

func TestBench(t *testing.T) { _ = p.BenchOnly() }
`)
	got, err := uncalled(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/p/p.go:9: p.Unused has no non-test use",
		"internal/p/p.go:11: p.unusedHelper has no non-test use",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("uncalled names:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// uncalled returns the declarations TestInternalNamesHaveCallers rejects in
// the module at root, in source order, as "file:line: pkg.Name has no
// non-test use".
func uncalled(root string) ([]string, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset, std := stdSource()
	l := &loader{fset: fset, root: root, module: module, std: std, pkgs: map[string]*loaded{}}
	bench := filepath.Join(root, "benchmark")
	err = filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := filepath.ToSlash(filepath.Join(module, rel))
		if dir == bench || strings.HasPrefix(dir, bench+string(filepath.Separator)) {
			return l.checkCaller(path, dir)
		}
		if _, err := l.load(path); err != nil {
			if _, none := err.(*build.NoGoError); !none {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return l.report(), nil
}

// stdSource returns one file set and one importer that type-checks the
// standard library from source, shared by every scan so that the planted
// module reuses the packages the real one checked.
var stdSource = sync.OnceValues(func() (*token.FileSet, types.ImporterFrom) {
	fset := token.NewFileSet()
	return fset, importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
})

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// loader type-checks the module's packages from source, non-test files
// only, and records every use they and the benchmark make.
type loader struct {
	fset   *token.FileSet
	root   string
	module string
	std    types.ImporterFrom
	pkgs   map[string]*loaded // by import path; nil while being loaded
	order  []*loaded
	uses   map[types.Object][]token.Pos
}

type loaded struct {
	pkg   *types.Package
	files []*ast.File
	defs  map[*ast.Ident]types.Object
	err   error
}

type span struct{ from, to token.Pos }

func (s span) holds(p token.Pos) bool { return s.from <= p && p < s.to }

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		return l.load(path)
	}
	return l.std.ImportFrom(path, dir, mode)
}

// load type-checks one of the module's packages by import path, once.
func (l *loader) load(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p.pkg, p.err
	}
	l.pkgs[path] = nil
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")))
	p := &loaded{}
	var bp *build.Package
	if bp, p.err = build.Default.ImportDir(dir, 0); p.err == nil {
		p.pkg, p.files, p.defs, p.err = l.check(path, dir, bp.GoFiles)
		l.order = append(l.order, p)
	}
	l.pkgs[path] = p
	return p.pkg, p.err
}

// checkCaller type-checks a benchmark directory with its in-package tests,
// for the uses alone.
func (l *loader) checkCaller(path, dir string) error {
	bp, err := build.Default.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		return nil
	} else if err != nil {
		return err
	}
	_, _, _, err = l.check(path, dir, append(bp.GoFiles, bp.TestGoFiles...))
	return err
}

// check parses and type-checks the named files of dir as one package and
// records its uses.
func (l *loader) check(path, dir string, names []string) (*types.Package, []*ast.File, map[*ast.Ident]types.Object, error) {
	var files []*ast.File
	inRecv := map[*ast.Ident]bool{} // naming a method's type in its receiver is no use
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						inRecv[id] = true
					}
					return true
				})
			}
		}
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, nil, nil, err
	}
	if l.uses == nil {
		l.uses = map[types.Object][]token.Pos{}
	}
	for id, obj := range info.Uses {
		if inRecv[id] {
			continue
		}
		// A use of an instantiated generic's method or field counts for the
		// declared one.
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		l.uses[obj] = append(l.uses[obj], id.Pos())
	}
	return pkg, files, info.Defs, nil
}

// decl is one judged declaration: its object, its name as the allowlist
// and the report spell it, and the source range whose references to it are
// its own (a recursive call, a self-referencing type).
type decl struct {
	obj  types.Object
	name string
	body span
}

// decls lists the declarations of p the report judges.
func (p *loaded) decls() []decl {
	internal := strings.Contains(p.pkg.Path()+"/", "/internal/")
	_, allowPkg := callerAllowlist[p.pkg.Path()]
	var out []decl
	add := func(id *ast.Ident, name string, body span) {
		obj := p.defs[id]
		if obj == nil || id.Name == "_" || obj.Exported() && !internal || allowPkg {
			return
		}
		if _, ok := callerAllowlist[p.pkg.Path()+"."+name]; !ok {
			out = append(out, decl{obj, name, body})
		}
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				body := span{d.Pos(), d.End()}
				switch {
				case d.Recv != nil:
					if d.Name.IsExported() {
						add(d.Name, recvName(p.defs[d.Name])+"."+d.Name.Name, body)
					}
				case d.Name.Name == "init" || d.Name.Name == "main" && p.pkg.Name() == "main":
				default:
					add(d.Name, d.Name.Name, body)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s.Name.Name, span{s.Pos(), s.End()})
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, n.Name, span{s.Pos(), s.End()})
						}
					}
				}
			}
		}
	}
	return out
}

// recvName is the name of a method's receiver base type.
func recvName(m types.Object) string {
	t := m.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named).Obj().Name()
}

// report lists the judged declarations no recorded use reaches.
func (l *loader) report() []string {
	var decls []decl
	for _, p := range l.order {
		decls = append(decls, p.decls()...)
	}
	sort.Slice(decls, func(i, j int) bool {
		a, b := l.fset.Position(decls[i].obj.Pos()), l.fset.Position(decls[j].obj.Pos())
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Offset < b.Offset
	})
	ifaces := l.interfaces()
	var out []string
	for _, d := range decls {
		if l.reached(d) {
			continue
		}
		if m, ok := d.obj.(*types.Func); ok && m.Type().(*types.Signature).Recv() != nil && satisfies(m, ifaces) {
			continue
		}
		pos := l.fset.Position(d.obj.Pos())
		file, err := filepath.Rel(l.root, pos.Filename)
		if err != nil {
			file = pos.Filename
		}
		out = append(out, fmt.Sprintf("%s:%d: %s.%s has no non-test use", filepath.ToSlash(file), pos.Line, d.obj.Pkg().Name(), d.name))
	}
	return out
}

// reached reports whether some use of d falls outside d's own range.
func (l *loader) reached(d decl) bool {
	for _, p := range l.uses[d.obj] {
		if !d.body.holds(p) {
			return true
		}
	}
	return false
}

// interfaces indexes by method name every named non-generic interface
// declared in the loaded packages and the packages they import, the
// universe's error and Unwrap() error included.
func (l *loader) interfaces() map[string][]*types.Interface {
	idx := map[string][]*types.Interface{}
	add := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			idx[it.Method(i).Name()] = append(idx[it.Method(i).Name()], it)
		}
	}
	errType := types.Universe.Lookup("error").Type()
	add(errType.Underlying().(*types.Interface))
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	add(types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() {
				add(it)
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range l.order {
		walk(p.pkg)
	}
	return idx
}

// satisfies reports whether m's receiver type, or a pointer to it, implements
// some indexed interface that has a method of m's name.
func satisfies(m *types.Func, ifaces map[string][]*types.Interface) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces[m.Name()] {
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}
