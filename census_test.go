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

// censusTestOnly lists the config fields no production caller sets that
// stay settable because a test needs a value the production one cannot give.
// Each names the test file that sets it: an entry whose file stops setting
// its field fails the census, like one whose field gains a production setter.
var censusTestOnly = map[string]struct{ file, why string }{
	"disk.HDDConfig.ChunkSectors":      {"internal/disk/disk_test.go", "tearing at single-sector granularity"},
	"disk.HDDConfig.CacheSectors":      {"internal/disk/disk_test.go", "a write cache small enough to fill"},
	"netsim.LinkConfig.DropProb":       {"internal/replica/replica_test.go", "the protocol's repair path"},
	"netsim.LinkConfig.DupProb":        {"internal/replica/replica_test.go", "the protocol's repair path"},
	"netsim.LinkConfig.ReorderProb":    {"internal/replica/replica_test.go", "the protocol's repair path"},
	"netsim.LinkConfig.Jitter":         {"internal/netsim/netsim_test.go", "exact delivery times"},
	"netsim.LinkConfig.Bandwidth":      {"internal/netsim/netsim_test.go", "link serialisation you can see"},
	"netsim.Config.CheckOwnership":     {"internal/netsim/ownership_test.go", "the ownership check without the netsimcheck tag"},
	"pagestore.Config.PoolPages":       {"internal/pagestore/pagestore_test.go", "a pool small enough to evict"},
	"replica.Config.RetainLimit":       {"internal/replica/replica_test.go", "a retention bound small enough to trim"},
	"power.PSUConfig.Name":             {"internal/power/power_test.go", "a PSU outside the presets, which live in the declaring file"},
	"power.PSUConfig.HoldupMin":        {"internal/power/power_test.go", "a PSU outside the presets, which live in the declaring file"},
	"power.PSUConfig.HoldupMax":        {"internal/power/power_test.go", "a PSU outside the presets, which live in the declaring file"},
	"power.PSUConfig.InterruptLatency": {"internal/power/power_test.go", "a PSU outside the presets, which live in the declaring file"},
}

// TestConfigCensus keeps "a knob nobody turns is a constant" true by
// construction: every exported field of every exported *Config / *Options
// struct under internal/ must be set by some production caller — a keyed
// composite literal or an assignment (to the field or through it:
// cfg.Net.Latency = … sets Net) in a non-test file outside examples/ and
// outside the file declaring the struct, anywhere in the module or
// benchmark/. A field only tests or its own applyDefaults write is a constant
// wearing a field's clothes: make it one, or list it in censusTestOnly.
func TestConfigCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source (≈10 s)")
	}
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	dirs := censusParse(t, fset, root)

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
	// setBy maps a field to the files (relative to root) that set it.
	setBy := map[token.Position]map[string]bool{}
	imp := importer.ForCompiler(fset, "source", nil)
	mark := func(info *types.Info, use ast.Node, id *ast.Ident) {
		v, ok := info.ObjectOf(id).(*types.Var)
		if !ok || !v.IsField() {
			return
		}
		decl, at := fset.Position(v.Pos()), fset.Position(use.Pos()).Filename
		if decl.Filename == at {
			return
		}
		rel, err := filepath.Rel(root, at)
		if err != nil {
			t.Fatal(err)
		}
		if setBy[decl] == nil {
			setBy[decl] = map[string]bool{}
		}
		setBy[decl][filepath.ToSlash(rel)] = true
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

	var bad []string
	declared := map[string]bool{}
	for pos, f := range fields {
		declared[f] = true
		prod := false
		for file := range setBy[pos] {
			prod = prod || !(strings.HasSuffix(file, "_test.go") || strings.HasPrefix(file, "examples/"))
		}
		entry, ok := censusTestOnly[f]
		switch {
		case prod && ok:
			bad = append(bad, fmt.Sprintf("%s has a production setter now: drop it from censusTestOnly", f))
		case prod:
		case !ok:
			bad = append(bad, fmt.Sprintf("%s is set by no production caller outside its own file: make it a constant (or set it)", f))
		case !setBy[pos][entry.file]:
			bad = append(bad, fmt.Sprintf("censusTestOnly says %s sets %s, and it does not: drop the entry or name the test that needs it", entry.file, f))
		}
	}
	for f := range censusTestOnly {
		if !declared[f] {
			bad = append(bad, fmt.Sprintf("censusTestOnly lists %s, which is gone: drop the entry", f))
		}
	}
	sort.Strings(bad)
	t.Logf("config census: %d exported *Config/*Options fields under internal/, %d set only by the tests in censusTestOnly",
		len(fields), len(censusTestOnly))
	for _, msg := range bad {
		t.Error(msg)
	}
}

// censusParse parses every buildable .go file under root, tests included,
// grouped by directory. benchmark/ is a module of its own but imports only
// this one, so it type-checks like any other directory.
func censusParse(t *testing.T, fset *token.FileSet, root string) map[string][]*ast.File {
	t.Helper()
	dirs := map[string][]*ast.File{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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
