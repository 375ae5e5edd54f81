package rapilog

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestQuickstart is the package documentation example, end to end: build a
// RapiLog deployment, commit, pull the plug, recover, verify.
func TestQuickstart(t *testing.T) {
	dep, err := New(Config{Seed: 1, Mode: ModeRapiLog})
	if err != nil {
		t.Fatal(err)
	}
	j := NewJournal()
	dep.S.Spawn(dep.Plat.Domain(), "db", func(p *Proc) {
		e, err := dep.Boot(p)
		if err != nil {
			t.Errorf("boot: %v", err)
			return
		}
		for i := 0; i < 10; i++ {
			tx := e.Begin(p)
			k := fmt.Sprintf("key-%d", i)
			if err := tx.Put(k, []byte("value")); err != nil {
				t.Errorf("put: %v", err)
				return
			}
			if err := tx.Commit(); err != nil {
				t.Errorf("commit: %v", err)
				return
			}
			j.Add(k, []byte("value"))
		}
		dep.CutPower()
		p.Sleep(time.Hour)
	})
	var verified bool
	dep.S.Spawn(nil, "operator", func(p *Proc) {
		p.Sleep(5 * time.Second)
		if _, err := dep.RecoverAfterPower(p); err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		dep.S.Spawn(dep.Plat.Domain(), "db2", func(p *Proc) {
			e, err := dep.Boot(p)
			if err != nil {
				t.Errorf("reboot: %v", err)
				return
			}
			res, err := j.Verify(p, e)
			if err != nil || !res.Ok() {
				t.Errorf("durability audit: %v %v", res, err)
				return
			}
			verified = true
		})
	})
	if err := dep.S.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !verified {
		t.Fatal("audit did not run")
	}
}

func TestFacadeSurface(t *testing.T) {
	if len(Modes) != 4 {
		t.Fatalf("facade lists %d modes", len(Modes))
	}
	if ExperimentByID("e1") == nil || ExperimentByID("nope") != nil {
		t.Fatal("ExperimentByID broken")
	}
	if PGLike.Name != "pg" || len(Personalities) != 3 {
		t.Fatal("personalities broken")
	}
	if PSUMeasured.HoldupMin <= PSUTypical.HoldupMin {
		t.Fatal("PSU profiles out of order")
	}
}

// TestExperimentsMatchDocs: the registry, EXPERIMENTS.md, the archived
// full-size output and DESIGN.md §4's experiment index name the same
// experiments. Derived from the four, not counted, so an experiment with a
// write-up and no runner (or a runner with no archived table) fails here
// instead of going unnoticed.
func TestExperimentsMatchDocs(t *testing.T) {
	var want []string
	for _, exp := range Experiments {
		want = append(want, exp.ID)
	}
	slices.Sort(want)
	heading := regexp.MustCompile(`(?m)^## ([EeAa]\d+) — `)
	docs := []struct {
		name, text string
		id         *regexp.Regexp
	}{
		{"EXPERIMENTS.md", readDoc(t, "EXPERIMENTS.md"), heading},
		{"results_full.txt", readDoc(t, "results_full.txt"), heading},
		{"DESIGN.md §4", designSection(t, 4), regexp.MustCompile(`(?m)^\| ([EA]\d+) \|`)},
	}
	for _, doc := range docs {
		var got []string
		for _, m := range doc.id.FindAllStringSubmatch(doc.text, -1) {
			got = append(got, strings.ToLower(m[1]))
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s has sections\n  %v\nthe registry runs\n  %v", doc.name, got, want)
		}
	}
}

// TestCalibrationTableMatchesConsts: every name in the first column of
// DESIGN.md §2's calibration table is a const of the package in its last
// column, so the table cannot name a knob that went back to being a field, or
// a constant that was renamed or deleted.
func TestCalibrationTableMatchesConsts(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(raw), "\n| Constant | Value | What it models | Package |\n|---|---|---|---|\n")
	if !ok {
		t.Fatal("DESIGN.md has no calibration table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	ident := regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*)`")
	consts := map[string]map[string]bool{} // package → its top-level consts
	rows := 0
	for _, row := range strings.Split(table, "\n") {
		cols := strings.Split(strings.Trim(row, "| "), " | ")
		pkgs := ident.FindAllStringSubmatch(cols[len(cols)-1], -1)
		if len(cols) != 4 || len(pkgs) != 1 {
			t.Fatalf("malformed calibration row %q", row)
		}
		pkg := pkgs[0][1]
		if consts[pkg] == nil {
			consts[pkg] = packageConsts(t, filepath.Join("internal", pkg))
		}
		names := ident.FindAllStringSubmatch(cols[0], -1)
		if len(names) == 0 {
			t.Errorf("calibration row %q names no constant", row)
		}
		for _, m := range names {
			if !consts[pkg][m[1]] {
				t.Errorf("DESIGN.md's calibration table lists %s, which is no const of internal/%s", m[1], pkg)
			}
		}
		rows++
	}
	t.Logf("%d calibration rows checked against %d packages", rows, len(consts))
}

// packageConsts returns the names of the top-level consts declared in dir's
// non-test Go files.
func packageConsts(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files in %s (%v)", dir, err)
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.CONST {
				for _, spec := range gd.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						names[id.Name] = true
					}
				}
			}
		}
	}
	return names
}

// designBudget is DESIGN.md's size limit in bytes. The document says what
// the code is and why; per-change measurements belong in CHANGES.md, and
// superseded designs in git.
const designBudget = 51200

// TestDesignDocWithinBudget keeps DESIGN.md from regrowing silently.
func TestDesignDocWithinBudget(t *testing.T) {
	if n := len(readDoc(t, "DESIGN.md")); n > designBudget {
		t.Errorf("DESIGN.md is %d bytes, over its %d-byte budget", n, designBudget)
	}
}

// TestDesignInventoryNamesEveryPackage: DESIGN.md §3's numbered inventory
// opens one item with each directory under internal/, cmd/ and examples/
// that holds Go files, and with no directory that holds none.
func TestDesignInventoryNamesEveryPackage(t *testing.T) {
	listed := map[string]int{}
	item := regexp.MustCompile("(?m)^\\d+\\. `((?:internal|cmd|examples)/[^`]+)`")
	for _, m := range item.FindAllStringSubmatch(designSection(t, 3), -1) {
		listed[m[1]]++
	}
	have := map[string]bool{}
	for _, root := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				have[filepath.ToSlash(filepath.Dir(path))] = true
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var dirs []string
	for dir := range have {
		dirs = append(dirs, dir)
	}
	for dir := range listed {
		if !have[dir] {
			dirs = append(dirs, dir)
		}
	}
	slices.Sort(dirs)
	for _, dir := range dirs {
		if !have[dir] {
			t.Errorf("DESIGN.md §3 lists %s, which holds no Go files", dir)
		} else if listed[dir] != 1 {
			t.Errorf("DESIGN.md §3 opens %d items with %s, want 1", listed[dir], dir)
		}
	}
}

// TestDesignSectionReferencesResolve: every "DESIGN.md §N" in Go source,
// README, ROADMAP, EXPERIMENTS.md and the CI and tooling files under the
// repository's hidden directories names a "## N." heading of DESIGN.md, so
// renumbering a section cannot strand a reference.
func TestDesignSectionReferencesResolve(t *testing.T) {
	sections := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\. `).FindAllStringSubmatch(readDoc(t, "DESIGN.md"), -1) {
		sections[m[1]] = true
	}
	files := []string{"README.md", "ROADMAP.md", "EXPERIMENTS.md"}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == ".git":
			return filepath.SkipDir
		case d.IsDir():
			return nil
		}
		hidden := strings.HasPrefix(path, ".")
		switch filepath.Ext(path) {
		case ".go":
			if !hidden {
				files = append(files, path)
			}
		case ".md", ".yml", ".yaml", ".sh", ".txt":
			if hidden {
				files = append(files, path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A reference may wrap: "DESIGN.md" at a line's end, "§N" on the next.
	ref := regexp.MustCompile(`DESIGN\.md(?:\s|//|#)*§(\d+)`)
	refs := 0
	for _, file := range files {
		for _, m := range ref.FindAllStringSubmatch(readDoc(t, file), -1) {
			refs++
			if !sections[m[1]] {
				t.Errorf("%s cites DESIGN.md §%s, which has no \"## %s.\" heading", file, m[1], m[1])
			}
		}
	}
	t.Logf("%d references checked in %d files", refs, len(files))
}

// readDoc returns the repository file name's contents.
func readDoc(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// designSection returns DESIGN.md's section n: from its "## n." heading to
// the next level-2 heading.
func designSection(t *testing.T, n int) string {
	t.Helper()
	_, sec, ok := strings.Cut(readDoc(t, "DESIGN.md"), fmt.Sprintf("\n## %d. ", n))
	if !ok {
		t.Fatalf("DESIGN.md has no section %d", n)
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	return sec
}

func TestFacadeCampaign(t *testing.T) {
	sum, err := RunCampaign(CampaignConfig{
		Rig:    Config{Seed: 9, Mode: ModeRapiLog},
		Fault:  FaultPowerCut,
		Trials: 1,
	})
	if err != nil || sum.Errors > 0 || sum.TotalLost > 0 {
		t.Fatalf("facade campaign: %s", sum)
	}
}

// The deployment exposes the sizing rule's bound as its logger's buffer: on
// a sharded machine, each shard's share of the hold-up window.
func TestSafeBufferSizeExposed(t *testing.T) {
	for _, shards := range []int{0, 2} {
		dep, err := New(Config{Seed: 2, Mode: ModeRapiLog, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if got := core.SafeBufferSize(dep.Machine, dep.DumpPart, max(shards, 1)); got != dep.Logger.MaxBuffer() {
			t.Fatalf("shards=%d: SafeBufferSize %d != logger bound %d", shards, got, dep.Logger.MaxBuffer())
		}
		dep.Close()
	}
}
