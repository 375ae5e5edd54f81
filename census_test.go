//go:build !race

// The config census is type-checking the whole module from source, which
// the race detector slows several-fold for no extra coverage; it is gated
// like the alloc pins and runs in the same CI step.

package rapilog

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// censusExempt lists the config fields that may stay settable although no
// caller outside their declaring file sets them, each with its reason.
var censusExempt = map[string]string{
	"ha.Config.HeartbeatEvery":       "the A12 detection sweep's dial (ROADMAP item 2)",
	"ha.Config.FailAfter":            "the A12 detection sweep's dial (ROADMAP item 2)",
	"ha.Config.RoundTimeout":         "the A12 detection sweep's dial (ROADMAP item 2)",
	"rig.ClusterConfig.HA":           "how A12 will reach the three ha.Config timings",
	"disk.FaultConfig.ReadErrProb":   "fault-model dial; campaigns drive it at run time through Faulty.SetErrorProbs",
	"disk.FaultConfig.TimeoutFrac":   "fault-model dial; campaigns drive it at run time through Faulty.SetErrorProbs",
	"disk.FaultConfig.SpikeProb":     "fault-model dial; campaigns drive it at run time through Faulty.SetStorm",
	"netsim.LinkConfig.ReorderDelay": "fault-model dial; the hold-back that pairs with ReorderProb",
}

// TestConfigCensus keeps "a knob nobody turns is a constant" true by
// construction: every exported field of every exported *Config / *Options
// struct under internal/ must be set by some caller — a keyed composite
// literal or an assignment (to the field or through it: cfg.Net.Latency = …
// sets Net) in any file other than the one declaring the struct, anywhere in
// the module, its tests, examples/ or benchmark/. A field only its own
// applyDefaults writes is a constant wearing a field's clothes: make it one.
func TestConfigCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source (≈10 s)")
	}
	fset := token.NewFileSet()
	dirs := censusParse(t, fset)

	// Declared fields, keyed by the position of the field name.
	fields := map[token.Position]string{}
	for dir, files := range dirs {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range files {
			if strings.HasSuffix(fset.File(f.Pos()).Name(), "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() ||
					!(strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Options")) {
					return true
				}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if id.IsExported() {
							fields[fset.Position(id.Pos())] = f.Name.Name + "." + ts.Name.Name + "." + id.Name
						}
					}
				}
				return true
			})
		}
	}

	// Setters, resolved by go/types so an alias (rapilog.Config) or a
	// same-named field of another struct cannot confuse the count.
	// The source importer re-parses imported packages into the same FileSet,
	// so a field is identified by where it is declared, not by object identity.
	set := map[token.Position]bool{}
	imp := importer.ForCompiler(fset, "source", nil)
	mark := func(info *types.Info, use ast.Node, id *ast.Ident) {
		v, ok := info.ObjectOf(id).(*types.Var)
		if !ok || !v.IsField() {
			return
		}
		decl := fset.Position(v.Pos())
		if decl.Filename != fset.Position(use.Pos()).Filename {
			set[decl] = true
		}
	}
	var markLHS func(info *types.Info, e ast.Expr)
	markLHS = func(info *types.Info, e ast.Expr) {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			mark(info, e, e.Sel)
			markLHS(info, e.X)
		case *ast.IndexExpr:
			markLHS(info, e.X)
		case *ast.ParenExpr:
			markLHS(info, e.X)
		case *ast.StarExpr:
			markLHS(info, e.X)
		}
	}
	for dir, files := range dirs {
		// One directory holds up to two packages: p (with its in-package
		// tests) and the external p_test.
		byPkg := map[string][]*ast.File{}
		for _, f := range files {
			byPkg[f.Name.Name] = append(byPkg[f.Name.Name], f)
		}
		for name, pf := range byPkg {
			info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
			conf := types.Config{Importer: imp}
			if _, err := conf.Check(dir+":"+name, fset, pf, info); err != nil {
				t.Fatalf("type-check %s (%s): %v", dir, name, err)
			}
			for _, f := range pf {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						for _, el := range n.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								if id, ok := kv.Key.(*ast.Ident); ok {
									mark(info, kv, id)
								}
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							markLHS(info, lhs)
						}
					case *ast.IncDecStmt:
						markLHS(info, n.X)
					}
					return true
				})
			}
		}
	}

	var unset []string
	exempt := map[string]bool{}
	for pos, f := range fields {
		switch _, ok := censusExempt[f]; {
		case set[pos]:
		case ok:
			exempt[f] = true
		default:
			unset = append(unset, f)
		}
	}
	sort.Strings(unset)
	t.Logf("config census: %d exported *Config/*Options fields under internal/, %d exempt, %d with no setter",
		len(fields), len(exempt), len(unset))
	for _, f := range unset {
		t.Errorf("%s is set by no caller outside its own file: make it a constant (or set it)", f)
	}
	for f := range censusExempt {
		if !exempt[f] {
			t.Errorf("censusExempt lists %s, which has a setter now or is gone: drop the exemption", f)
		}
	}
}

// censusParse parses every buildable .go file under the repository root,
// tests included, grouped by directory. benchmark/ is a module of its own but
// imports only this one, so it type-checks like any other directory.
func censusParse(t *testing.T, fset *token.FileSet) map[string][]*ast.File {
	t.Helper()
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[string][]*ast.File{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		dirs[filepath.ToSlash(rel)] = append(dirs[filepath.ToSlash(rel)], f)
		return nil
	})
	if err != nil {
		t.Fatal(fmt.Errorf("parse module: %w", err))
	}
	return dirs
}
