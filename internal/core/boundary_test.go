//go:build !race

// The boundary check type-checks the package from source, which the race
// detector slows several-fold for no extra coverage; it is gated like the
// config census.

package core

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"testing"
)

// TestBufferRulesStandAlone holds the boundary of the rules file: buffer.go
// imports only the standard library, and no file of the package but
// buffer.go and its tests, buffer_test.go, names a field of buffer or entry
// or builds one with a literal. The Logger reaches the buffer's state only
// through its methods, so every rule is where those tests can drive it.
func TestBufferRulesStandAlone(t *testing.T) {
	fset := token.NewFileSet()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, path := range paths {
		if ok, err := build.Default.MatchFile(".", path); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name.Name != "core" {
			continue // the external test package cannot see unexported fields
		}
		files = append(files, f)
		if path != "buffer.go" {
			continue
		}
		for _, imp := range f.Imports {
			path := imp.Path.Value[1 : len(imp.Path.Value)-1]
			if pkg, err := build.Default.Import(path, ".", build.FindOnly); err != nil || !pkg.Goroot {
				t.Errorf("buffer.go imports %s, which is not in the standard library", path)
			}
		}
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("repro/internal/core", fset, files, info)
	if err != nil {
		t.Fatal(err)
	}
	state := map[types.Object]bool{}
	for _, name := range []string{"buffer", "entry"} {
		st := pkg.Scope().Lookup(name).Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			state[st.Field(i)] = true
		}
	}
	if len(state) < 10 {
		t.Fatalf("found %d state fields in buffer and entry: the check would be vacuous", len(state))
	}
	own := map[string]bool{"buffer.go": true, "buffer_test.go": true}
	for id, obj := range info.Uses {
		if at := fset.Position(id.Pos()); state[obj] && !own[filepath.Base(at.Filename)] {
			t.Errorf("%s: uses the buffer's state field %s; go through a buffer method", at, id.Name)
		}
	}
	for _, f := range files {
		name := filepath.Base(fset.Position(f.Pos()).Filename)
		if own[name] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok {
				if named, ok := info.Types[lit].Type.(*types.Named); ok && (named.Obj().Name() == "buffer" || named.Obj().Name() == "entry") && named.Obj().Pkg() == pkg {
					t.Errorf("%s: builds a %s by literal; use newBuffer", fset.Position(lit.Pos()), named.Obj().Name())
				}
			}
			return true
		})
	}
}
