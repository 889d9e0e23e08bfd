package microdata

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestAPI rebuilds api.txt from anonlib.go, one line per exported
// declaration as written, and requires it to match the committed file: the
// package's public surface changes only together with a diff of api.txt.
func TestAPI(t *testing.T) {
	got, err := apiLines("anonlib.go")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if strings.Join(got, "\n") == strings.Join(want, "\n") {
		return
	}
	inWant := make(map[string]bool, len(want))
	for _, l := range want {
		inWant[l] = true
	}
	inGot := make(map[string]bool, len(got))
	for _, l := range got {
		inGot[l] = true
		if !inWant[l] {
			t.Errorf("anonlib.go exports %q, which api.txt lacks", l)
		}
	}
	for _, l := range want {
		if !inGot[l] {
			t.Errorf("api.txt lists %q, which anonlib.go does not export", l)
		}
	}
	t.Errorf("api.txt is stale; the surface anonlib.go declares is:\n%s", strings.Join(got, "\n"))
}

// apiLines parses one Go file and returns its exported package-level
// declarations, one per line, sorted: funcs by signature, types, consts
// and vars by spec.
func apiLines(path string) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil, err
	}
	var lines []string
	add := func(keyword string, node any) error {
		var buf bytes.Buffer
		if err := printer.Fprint(&buf, fset, node); err != nil {
			return err
		}
		lines = append(lines, strings.TrimSpace(keyword+" "+strings.Join(strings.Fields(buf.String()), " ")))
		return nil
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil || !d.Name.IsExported() {
				continue
			}
			if err := add("", &ast.FuncDecl{Name: d.Name, Type: d.Type}); err != nil {
				return nil, err
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				exported := false
				switch s := spec.(type) {
				case *ast.TypeSpec:
					exported = s.Name.IsExported()
				case *ast.ValueSpec:
					for _, n := range s.Names {
						exported = exported || n.IsExported()
					}
				}
				if !exported {
					continue
				}
				if err := add(d.Tok.String(), spec); err != nil {
					return nil, err
				}
			}
		}
	}
	sort.Strings(lines)
	return lines, nil
}
