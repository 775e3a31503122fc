package lint

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// fixtureLoader is shared across tests so the standard library is
// source-imported only once.
var (
	fixtureOnce   sync.Once
	fixtureLoader *Loader
)

func loadFixture(t *testing.T, path string) *Package {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureLoader = NewLoader("testdata", "fix")
	})
	pkg, err := fixtureLoader.Load(path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", path, err)
	}
	return pkg
}

// scanWants collects the "// want <rule>" markers of a fixture
// package as "file:line:rule" keys.
func scanWants(pkg *Package) map[string]int {
	wants := make(map[string]int)
	for _, f := range pkg.AllFiles() {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				rule := strings.TrimSpace(rest)
				p := pkg.Fset.Position(c.Pos())
				wants[fmt.Sprintf("%s:%d:%s", filepath.Base(p.Filename), p.Line, rule)]++
			}
		}
	}
	return wants
}

// checkFixture runs one rule over the given fixture packages and
// compares the findings against their // want markers, proving both
// that the rule fires on violations and that //lint:ignore suppresses
// it. Interprocedural rules pass every package of their fixture call
// graph; per-package rules pass one.
func checkFixture(t *testing.T, rule Rule, pkgPaths ...string) {
	t.Helper()
	pkgs := make([]*Package, 0, len(pkgPaths))
	wants := make(map[string]int)
	for _, path := range pkgPaths {
		pkg := loadFixture(t, path)
		pkgs = append(pkgs, pkg)
		for k, n := range scanWants(pkg) {
			wants[k] += n
		}
	}
	got := make(map[string]int)
	for _, f := range Run(pkgs, []Rule{rule}) {
		if f.Rule != rule.Name() {
			t.Errorf("unexpected finding from rule %q: %s", f.Rule, f)
			continue
		}
		got[fmt.Sprintf("%s:%d:%s", filepath.Base(f.File), f.Line, f.Rule)]++
	}
	for key, n := range wants {
		if got[key] != n {
			t.Errorf("want %d finding(s) at %s, got %d", n, key, got[key])
		}
	}
	for key, n := range got {
		if wants[key] == 0 {
			t.Errorf("unexpected finding(s) at %s (×%d)", key, n)
		}
	}
}

func TestMapOrderFixture(t *testing.T) {
	checkFixture(t, NewMapOrder(anyPackage), "fix/maporder")
}

func TestFloatEqFixture(t *testing.T) {
	checkFixture(t, NewFloatEq(anyPackage, "EqualWithin"), "fix/floateq")
}

func TestSeedRandFixture(t *testing.T) {
	checkFixture(t, NewSeedRand(anyPackage), "fix/seedrand")
}

func TestAPIErrFixture(t *testing.T) {
	checkFixture(t, NewAPIErr("fix/apierr/api", anyPackage), "fix/apierr/use")
}

func TestEqDocFixture(t *testing.T) {
	checkFixture(t, NewEqDoc(anyPackage), "fix/eqdoc")
}

func TestIOUnderLockFixture(t *testing.T) {
	checkFixture(t, NewIOUnderLock(anyPackage), "fix/iounderlock", "fix/iounderlock/wal")
}

func TestLockOrderFixture(t *testing.T) {
	checkFixture(t, NewLockOrder(anyPackage), "fix/lockorder")
}

func TestClockSeamFixture(t *testing.T) {
	checkFixture(t, NewClockSeam(inPackages("fix/clockseam")),
		"fix/clockseam", "fix/clockseam/clk")
}

func TestErrClassFixture(t *testing.T) {
	checkFixture(t, NewErrClass(inPackages("fix/errclass/api"), inPackages()),
		"fix/errclass/api", "fix/errclass/impl")
}

func TestBodyCloseFixture(t *testing.T) {
	checkFixture(t, NewBodyClose(anyPackage), "fix/bodyclose")
}

func TestSuppressedCount(t *testing.T) {
	pkgs := []*Package{
		loadFixture(t, "fix/iounderlock"),
		loadFixture(t, "fix/iounderlock/wal"),
	}
	res := RunDetail(pkgs, []Rule{NewIOUnderLock(anyPackage)})
	if res.Suppressed != 1 {
		t.Errorf("Suppressed = %d, want 1 (the SubmitWaived directive)", res.Suppressed)
	}
	if len(res.UnusedIgnores) != 0 {
		t.Errorf("used directive flagged as unused: %v", res.UnusedIgnores)
	}
}

func TestUnusedIgnores(t *testing.T) {
	pkg := loadFixture(t, "fix/unusedignore")
	res := RunDetail([]*Package{pkg}, []Rule{NewSeedRand(anyPackage)})
	if len(res.Findings) != 0 {
		t.Errorf("unexpected findings: %v", res.Findings)
	}
	if len(res.UnusedIgnores) != 1 {
		t.Fatalf("UnusedIgnores = %v, want exactly one", res.UnusedIgnores)
	}
	if got := res.UnusedIgnores[0]; got.Rule != "unused-ignore" ||
		!strings.Contains(got.Message, "seedrand") {
		t.Errorf("unhelpful unused-ignore finding: %v", got)
	}
	// A directive naming a rule that did not run in this invocation
	// cannot be judged stale.
	res = RunDetail([]*Package{pkg}, []Rule{NewMapOrder(anyPackage)})
	if len(res.UnusedIgnores) != 0 {
		t.Errorf("directive for a skipped rule flagged as unused: %v", res.UnusedIgnores)
	}
}

func TestMalformedDirective(t *testing.T) {
	pkg := loadFixture(t, "fix/directive")
	findings := Run([]*Package{pkg}, nil)
	if len(findings) != 1 || findings[0].Rule != "directive" {
		t.Fatalf("want exactly one directive finding, got %v", findings)
	}
	if !strings.Contains(findings[0].Message, "malformed") {
		t.Errorf("unhelpful message: %s", findings[0].Message)
	}
}

func TestSuppressionSameLineAndAbove(t *testing.T) {
	pkg := loadFixture(t, "fix/floateq")
	sup, bad := collectSuppressions(pkg)
	if len(bad) != 0 {
		t.Fatalf("fixture has malformed directives: %v", bad)
	}
	var file string
	var line int
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, ignorePrefix) {
					p := pkg.Fset.Position(c.Pos())
					file, line = p.Filename, p.Line
				}
			}
		}
	}
	if file == "" {
		t.Fatal("fixture has no //lint:ignore directive")
	}
	if !sup.suppress(file, line, "floateq") || !sup.suppress(file, line+1, "floateq") {
		t.Error("directive must suppress its own line and the next")
	}
	if sup.suppress(file, line+2, "floateq") {
		t.Error("directive must not leak past the next line")
	}
	if sup.suppress(file, line, "maporder") {
		t.Error("directive must only suppress the named rule")
	}
}

func TestFindModule(t *testing.T) {
	root, modPath, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	if modPath != "starperf" {
		t.Errorf("module path %q, want starperf", modPath)
	}
	if filepath.Base(filepath.Dir(filepath.Dir(root))) == "" {
		t.Errorf("implausible root %q", root)
	}
}

func TestDefaultRulesScopes(t *testing.T) {
	byName := make(map[string]Rule)
	for _, r := range DefaultRules() {
		if r.Doc() == "" {
			t.Errorf("rule %s has no doc", r.Name())
		}
		byName[r.Name()] = r
	}
	cases := []struct {
		rule, pkg string
		want      bool
	}{
		{"maporder", "starperf/internal/desim", true},
		{"maporder", "starperf/internal/obs", true},
		{"maporder", "starperf/internal/jobs", true},
		{"maporder", "starperf/internal/cache", true},
		{"maporder", "starperf/internal/server", true},
		{"maporder", "starperf/internal/journal", true},
		{"maporder", "starperf/internal/fsx", true},
		{"maporder", "starperf/internal/cluster", true},
		{"maporder", "starperf/client", true},
		{"maporder", "starperf/internal/bounds", true},
		{"maporder", "starperf/internal/model", true},
		{"floateq", "starperf/internal/model", true},
		{"floateq", "starperf/internal/bounds", true},
		{"floateq", "starperf/internal/desim", false},
		{"seedrand", "starperf/internal/traffic", true},
		{"seedrand", "starperf/internal/jobs", true},
		{"seedrand", "starperf/internal/cache", true},
		{"seedrand", "starperf/internal/fsx", true},
		{"seedrand", "starperf/internal/server", false},
		{"seedrand", "starperf/internal/journal", false},
		{"seedrand", "starperf/client", false},
		{"seedrand", "starperf/internal/lint", false},
		{"seedrand", "starperf/cmd/starsim", false},
		{"apierr", "starperf/examples/quickstart", true},
		{"eqdoc", "starperf/internal/stargraph", true},
		{"eqdoc", "starperf/internal/desim", false},
		{"iounderlock", "starperf/internal/jobs", true},
		{"iounderlock", "starperf/internal/server", true},
		{"iounderlock", "starperf/internal/cache", true},
		{"iounderlock", "starperf/internal/journal", false},
		{"iounderlock", "starperf/internal/fsx", false},
		{"lockorder", "starperf/internal/jobs", true},
		{"lockorder", "starperf/internal/journal", true},
		{"lockorder", "starperf/client", true},
		{"clockseam", "starperf/internal/desim", true},
		{"clockseam", "starperf/internal/jobs", true},
		{"clockseam", "starperf/internal/journal", true},
		{"clockseam", "starperf/internal/cluster", true},
		{"clockseam", "starperf/internal/bounds", true},
		{"clockseam", "starperf/internal/server", false},
		{"clockseam", "starperf/client", false},
		{"clockseam", "starperf/internal/cache", false},
		{"errclass", "starperf", true},
		{"errclass", "starperf/client", true},
		{"errclass", "starperf/internal/cluster", true},
		{"errclass", "starperf/internal/bounds", true},
		{"errclass", "starperf/internal/model", false},
		{"bodyclose", "starperf/client", true},
		{"bodyclose", "starperf/internal/server", true},
		{"bodyclose", "starperf/internal/cluster", true},
		{"bodyclose", "starperf/internal/desim", false},
	}
	for _, c := range cases {
		r, ok := byName[c.rule]
		if !ok {
			t.Fatalf("rule %s missing from DefaultRules", c.rule)
		}
		if got := r.Applies(c.pkg); got != c.want {
			t.Errorf("%s.Applies(%s) = %v, want %v", c.rule, c.pkg, got, c.want)
		}
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Rule: "floateq", File: "a.go", Line: 3, Col: 9, Message: "m"}
	if got := f.String(); got != "a.go:3:9: m [floateq]" {
		t.Errorf("Finding.String() = %q", got)
	}
}

// TestRepoIsClean lints the real module with the production rule set:
// the tree must stay free of findings so CI's starlint gate holds.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("source-imports the standard library; slow")
	}
	root, modPath, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(root, modPath)
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("only %d packages loaded — loader lost part of the module", len(pkgs))
	}
	for _, f := range Run(pkgs, DefaultRules()) {
		t.Errorf("%s", f)
	}
}
