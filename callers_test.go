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
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// callerAllowlist names the only declarations and struct fields that may
// lack a non-test use: a whole test-support package by import path, or one
// name as "path.Name" (a method or a field as "path.Type.Name"), each with
// its reason.
var callerAllowlist = map[string]string{
	"microdata/internal/algorithm/algtest":         "test-support package: fixtures and the naive reference shared by tests in several packages",
	"microdata/internal/freqset.Store.Len":         "seam: the experiment tests count a shared store's resident sets",
	"microdata/internal/telemetry.WithClock":       "seam: the report tests inject a fake clock for exact phase durations",
	"microdata/internal/workload.Report.Queries":   "seam: the workload tests compare each report with the per-query reference, query count included",
	"microdata/internal/workload.Report.AbsErrors": "seam: the workload tests compare each report's per-query errors with the reference, bit for bit",
}

// TestInternalNamesHaveCallers type-checks the module's non-test files and
// fails on every exported name in internal/... and every unexported
// package-level declaration anywhere in the module that no non-test code
// uses, and on every struct field outside the façade that non-test code
// does not both set and read (see structFields for the exempt fields).
// Every file under benchmark/, its tests included, counts as a caller,
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
	plant := func(path, src string) { plantFile(t, root, path, src) }
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

// TestUncalledFindsPlantedFields plants a module and checks which struct
// fields uncalled names: a field only a test sets and a field written but
// never read, but not a json-tagged field, the fields of a map-key struct,
// a sync.Mutex or an exported field of a type the façade aliases.
func TestUncalledFindsPlantedFields(t *testing.T) {
	root := t.TempDir()
	plant := func(path, src string) { plantFile(t, root, path, src) }
	plant("go.mod", "module planted\n\ngo 1.22\n")
	plant("internal/p/p.go", `package p

import "sync"

// Opts is built by New.
type Opts struct {
	TestOnly int
	written  int
	Tagged   int `+"`json:\"tagged\"`"+`
	mu       sync.Mutex
	used     int
}

// New returns options.
func New() *Opts { return &Opts{used: 1} }

type key struct{ a, b int }

// Run reads the options.
func (o *Opts) Run() int {
	o.written = o.used
	return o.TestOnly + map[key]int{{1, 2}: 3}[key{}]
}

// Public is aliased by the façade, whose consumers set Knob.
type Public struct{ Knob int }

// Twice reads Knob.
func (q Public) Twice() int { return 2 * q.Knob }
`)
	plant("root.go", `package planted

import "planted/internal/p"

// Public is p.Public.
type Public = p.Public

// Run runs p.
func Run() int { return p.New().Run() + Public{}.Twice() }
`)
	plant("internal/p/p_test.go", `package p

import "testing"

func TestOpts(t *testing.T) { _ = (&Opts{TestOnly: 2}).Run() }
`)
	got, err := uncalled(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/p/p.go:7: p.Opts.TestOnly is never set by non-test code",
		"internal/p/p.go:8: p.Opts.written is never read by non-test code",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("uncalled fields:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// plantFile writes src to path under root, making its directories.
func plantFile(t *testing.T, root, path, src string) {
	t.Helper()
	path = filepath.Join(root, path)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// uncalled returns the declarations and fields TestInternalNamesHaveCallers
// rejects in the module at root, in source order, as "file:line: pkg.Name
// has no non-test use" or, for a field, "pkg.Type.Field is never set (or
// read) by non-test code".
func uncalled(root string) ([]string, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset, std := stdSource()
	l := &loader{fset: fset, root: root, module: module, std: std, pkgs: map[string]*loaded{},
		uses: map[types.Object][]token.Pos{}, fields: map[*types.Var]fieldUse{}}
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
	fields map[*types.Var]fieldUse // how the module and the benchmark use each field
}

// fieldUse records whether the scanned code sets and reads a struct field.
type fieldUse struct{ set, read bool }

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
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, nil, nil, err
	}
	sets, addrs := l.fieldWrites(files, info)
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
			if o.IsField() {
				l.note(o, sets[id] || addrs[id], !sets[id])
			}
		}
		l.uses[obj] = append(l.uses[obj], id.Pos())
	}
	return pkg, files, info.Defs, nil
}

// fieldWrites walks the checked files for field uses that set a field: a
// key of a composite literal, a selector assigned to or incremented (with
// the struct values it lies in), and, in addrs, a field whose address is
// taken or whose pointer method is called, which counts as a set and a
// read since what the pointer does is unknown. It notes as set every field
// of a struct built by an unkeyed literal, and as set and read every field
// of a struct used as a map key or an operand of == or !=, which compares
// them all.
func (l *loader) fieldWrites(files []*ast.File, info *types.Info) (sets, addrs map[*ast.Ident]bool) {
	sets, addrs = map[*ast.Ident]bool{}, map[*ast.Ident]bool{}
	// mark records the field e selects, then the fields of the struct
	// values and arrays it lies in, up to a pointer or a non-field operand.
	var mark func(into map[*ast.Ident]bool, e ast.Expr)
	mark = func(into map[*ast.Ident]bool, e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
				into[e.Sel] = true
				if _, ptr := info.TypeOf(e.X).Underlying().(*types.Pointer); !ptr {
					mark(into, e.X)
				}
			}
		case *ast.IndexExpr:
			if _, array := info.TypeOf(e.X).Underlying().(*types.Array); array {
				mark(into, e.X)
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					mark(sets, lhs)
				}
			case *ast.IncDecStmt:
				mark(sets, n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					mark(addrs, n.X)
				}
			case *ast.SelectorExpr:
				if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
					_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
					if _, ptr := info.TypeOf(n.X).Underlying().(*types.Pointer); ptrRecv && !ptr {
						mark(addrs, n.X)
					}
				}
			case *ast.CompositeLit:
				st, ok := info.TypeOf(n).Underlying().(*types.Struct)
				if !ok || len(n.Elts) == 0 {
					break
				}
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						sets[kv.Key.(*ast.Ident)] = true
					}
				}
				if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
					for i := range st.NumFields() {
						l.note(st.Field(i), true, false)
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					l.compare(info.TypeOf(n.X))
				}
			}
			return true
		})
	}
	for _, tv := range info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			l.compare(m.Key())
		}
	}
	return sets, addrs
}

// compare notes the fields of t as set and read, with those of the structs
// and arrays they hold.
func (l *loader) compare(t types.Type) {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := range u.NumFields() {
			l.note(u.Field(i), true, true)
			l.compare(u.Field(i).Type())
		}
	case *types.Array:
		l.compare(u.Elem())
	}
}

// note records a set or a read of field f, counted for the declared field
// when f belongs to an instantiated generic.
func (l *loader) note(f *types.Var, set, read bool) {
	u := l.fields[f.Origin()]
	l.fields[f.Origin()] = fieldUse{u.set || set, u.read || read}
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

// structFields lists the judged fields of p's struct types, named as the
// allowlist and the report spell them ("Type.Field"). Exempt are the fields
// of an allowlisted package, the exported fields of types the façade
// aliases (the consumer sets them), embedded fields, sync and sync/atomic
// values, and json-tagged fields, which encoding/json sets and reads.
func (p *loaded) structFields(aliased map[*types.TypeName]bool) []decl {
	if _, allowPkg := callerAllowlist[p.pkg.Path()]; allowPkg {
		return nil
	}
	var out []decl
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			s, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			tn, _ := p.defs[s.Name].(*types.TypeName)
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok || tn.IsAlias() {
				return true
			}
			for i := range st.NumFields() {
				fv := st.Field(i)
				json, tagged := reflect.StructTag(st.Tag(i)).Lookup("json")
				if fv.Name() == "_" || fv.Embedded() || fv.Exported() && aliased[tn] || tagged && json != "-" || syncValue(fv.Type()) {
					continue
				}
				name := tn.Name() + "." + fv.Name()
				if _, ok := callerAllowlist[p.pkg.Path()+"."+name]; !ok {
					out = append(out, decl{obj: fv, name: name})
				}
			}
			return true
		})
	}
	return out
}

// syncValue reports whether t is a type of package sync or sync/atomic.
func syncValue(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	return path == "sync" || path == "sync/atomic"
}

// fieldVerdict names what non-test code does not do with the judged field
// f, or "" when it sets and reads it.
func (l *loader) fieldVerdict(f *types.Var) string {
	switch u := l.fields[f]; {
	case u.set && u.read:
		return ""
	case u.set:
		return "is never read by non-test code"
	case u.read:
		return "is never set by non-test code"
	}
	return "has no non-test use"
}

// report lists the judged declarations no recorded use reaches and the
// judged fields non-test code does not both set and read, in source order.
func (l *loader) report() []string {
	type finding struct {
		pos  token.Position
		text string
	}
	var found []finding
	add := func(obj types.Object, name, verdict string) {
		pos := l.fset.Position(obj.Pos())
		file, err := filepath.Rel(l.root, pos.Filename)
		if err != nil {
			file = pos.Filename
		}
		found = append(found, finding{pos, fmt.Sprintf("%s:%d: %s.%s %s", filepath.ToSlash(file), pos.Line, obj.Pkg().Name(), name, verdict)})
	}
	ifaces := l.interfaces()
	aliased := l.aliased()
	for _, p := range l.order {
		for _, d := range p.decls() {
			if l.reached(d) {
				continue
			}
			if m, ok := d.obj.(*types.Func); ok && m.Type().(*types.Signature).Recv() != nil && satisfies(m, ifaces) {
				continue
			}
			add(d.obj, d.name, "has no non-test use")
		}
		if p.pkg.Path() == l.module {
			continue
		}
		for _, d := range p.structFields(aliased) {
			if v := l.fieldVerdict(d.obj.(*types.Var)); v != "" {
				add(d.obj, d.name, v)
			}
		}
	}
	sort.Slice(found, func(i, j int) bool {
		a, b := found[i].pos, found[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Offset < b.Offset
	})
	out := make([]string, len(found))
	for i, f := range found {
		out[i] = f.text
	}
	return out
}

// aliased returns the types the façade, the module's root package, aliases.
func (l *loader) aliased() map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	root := l.pkgs[l.module]
	if root == nil || root.pkg == nil {
		return out
	}
	for _, name := range root.pkg.Scope().Names() {
		if tn, ok := root.pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				out[named.Origin().Obj()] = true
			}
		}
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
