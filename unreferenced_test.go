package perfq

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoUnreferencedDecls fails on every top-level func, type, const or
// var of a non-test file whose name appears nowhere else in the module:
// no other declaration, test, command or example names it, and neither
// does the nested benchmark module, which is read as a consumer only.
// Methods are out of scope, since a method can be live only through an
// interface it satisfies implicitly; so are main, init and blanks.
func TestNoUnreferencedDecls(t *testing.T) {
	fset := token.NewFileSet()
	seen := map[string]int{} // identifier → occurrences, declarations included
	var decls []*ast.Ident
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				seen[id.Name]++
			}
			return true
		})
		if !strings.HasSuffix(path, "_test.go") && !strings.HasPrefix(filepath.ToSlash(path), "benchmark/") {
			decls = append(decls, topLevelNames(f)...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for _, id := range decls {
		if seen[id.Name] == 1 {
			unused = append(unused, fmt.Sprintf("%s: %s", fset.Position(id.Pos()), id.Name))
		}
	}
	if len(unused) > 0 {
		t.Errorf("declared, and named nowhere else in the module:\n\t%s", strings.Join(unused, "\n\t"))
	}
}

// topLevelNames returns the names f declares at top level, less
// methods, main, init and blanks.
func topLevelNames(f *ast.File) []*ast.Ident {
	var out []*ast.Ident
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.Name != "main" && d.Name.Name != "init" {
				out = append(out, d.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					out = append(out, s.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.Name != "_" {
							out = append(out, n)
						}
					}
				}
			}
		}
	}
	return out
}
