// Package lint implements starlint, the repo-specific static-analysis
// pass behind cmd/starlint. It walks every package of the module with
// go/parser and go/types (standard library only) and enforces the
// correctness invariants the paper reproduction depends on: the
// flit-level simulator and the analytical model must agree bit-for-bit
// run over run, so map-iteration order must never feed event order,
// randomness must flow through injected seeded sources, floats must
// not be compared exactly, errors from the public API must not be
// dropped, and the model's exported surface must be traceable to the
// paper's equations.
//
// A finding can be suppressed in place with
//
//	//lint:ignore rule1[,rule2] reason
//
// placed on, or on the line directly above, the offending line. The
// reason is mandatory; a directive without one is itself reported
// (rule "directive").
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by a rule.
type Finding struct {
	// Rule is the name of the rule that fired.
	Rule string `json:"rule"`
	// File, Line and Col locate the finding (1-based line and column).
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Message explains the violation and how to fix it.
	Message string `json:"message"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.File, f.Line, f.Col, f.Message, f.Rule)
}

// ReportFunc is how rules emit findings.
type ReportFunc func(pos token.Pos, msg string)

// Rule is one self-contained checker.
type Rule interface {
	// Name is the short identifier used in output and in
	// //lint:ignore directives.
	Name() string
	// Doc is a one-line description for -list.
	Doc() string
	// Applies reports whether the rule runs on the given import path.
	Applies(pkgPath string) bool
	// Check analyses one package and reports findings.
	Check(pkg *Package, report ReportFunc)
}

// ProgramReportFunc is how program-wide rules emit findings: the
// package is needed to resolve positions and suppressions for the
// file being reported into (which, for interprocedural rules, is not
// necessarily the rule's entry-point package).
type ProgramReportFunc func(pkg *Package, pos token.Pos, msg string)

// ProgramRule is a rule that analyses the whole module at once over
// the phase-one call graph (Program) instead of package by package.
// Its Check method is never called by the engine; Applies declares
// where the rule's entry points live (the rule consults its own scope
// when walking the program, and may report findings outside it — an
// errclass leaf can sit in a package the rule does not scan).
type ProgramRule interface {
	Rule
	CheckProgram(prog *Program, report ProgramReportFunc)
}

// Result is the full outcome of a lint run.
type Result struct {
	// Findings are the surviving diagnostics, sorted by position.
	Findings []Finding
	// Suppressed counts findings silenced by //lint:ignore.
	Suppressed int
	// UnusedIgnores lists //lint:ignore directives (rule
	// "unused-ignore") that silenced nothing in this run and whose
	// every named rule actually ran — stale suppressions that outlive
	// the code they excused.
	UnusedIgnores []Finding
}

// Run executes every applicable rule over every package, drops
// suppressed findings, and returns the rest sorted by position. The
// returned slice also contains a "directive" finding for every
// malformed //lint:ignore comment.
func Run(pkgs []*Package, rules []Rule) []Finding {
	return RunDetail(pkgs, rules).Findings
}

// RunDetail is Run with the suppression accounting exposed: how many
// findings //lint:ignore silenced, and which directives are stale.
func RunDetail(pkgs []*Package, rules []Rule) Result {
	var res Result
	tables := make(map[string]*supTable, len(pkgs))
	for _, pkg := range pkgs {
		sup, bad := collectSuppressions(pkg)
		tables[pkg.Path] = sup
		res.Findings = append(res.Findings, bad...)
	}
	record := func(rule Rule, pkg *Package, pos token.Pos, msg string) {
		p := pkg.Fset.Position(pos)
		if tables[pkg.Path].suppress(p.Filename, p.Line, rule.Name()) {
			res.Suppressed++
			return
		}
		res.Findings = append(res.Findings, Finding{
			Rule:    rule.Name(),
			File:    p.Filename,
			Line:    p.Line,
			Col:     p.Column,
			Message: msg,
		})
	}

	var progRules []ProgramRule
	for _, rule := range rules {
		if pr, ok := rule.(ProgramRule); ok {
			progRules = append(progRules, pr)
			continue
		}
		for _, pkg := range pkgs {
			if !rule.Applies(pkg.Path) {
				continue
			}
			pkg := pkg
			rule := rule
			rule.Check(pkg, func(pos token.Pos, msg string) {
				record(rule, pkg, pos, msg)
			})
		}
	}
	if len(progRules) > 0 {
		prog := BuildProgram(pkgs)
		for _, rule := range progRules {
			rule := rule
			rule.CheckProgram(prog, func(pkg *Package, pos token.Pos, msg string) {
				record(rule, pkg, pos, msg)
			})
		}
	}

	sortFindings(res.Findings)
	res.UnusedIgnores = unusedIgnores(pkgs, tables, rules)
	return res
}

func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// unusedIgnores reports directives that suppressed nothing. A
// directive is only judged when every rule it names ran in this
// invocation (a -rules subset must not flag suppressions for the
// rules it skipped); per-package rules additionally must apply to the
// directive's package, while program rules see the whole module.
func unusedIgnores(pkgs []*Package, tables map[string]*supTable, rules []Rule) []Finding {
	byName := make(map[string]Rule, len(rules))
	for _, r := range rules {
		byName[r.Name()] = r
	}
	var out []Finding
	for _, pkg := range pkgs {
		for _, e := range tables[pkg.Path].entries {
			if e.used {
				continue
			}
			judgeable := true
			for rname := range e.rules {
				r, ok := byName[rname]
				if !ok {
					judgeable = false
					break
				}
				if _, isProg := r.(ProgramRule); !isProg && !r.Applies(pkg.Path) {
					judgeable = false
					break
				}
			}
			if !judgeable {
				continue
			}
			out = append(out, Finding{
				Rule: "unused-ignore", File: e.file, Line: e.line, Col: e.col,
				Message: fmt.Sprintf("//lint:ignore %s suppresses nothing: delete it or re-justify it",
					e.ruleList),
			})
		}
	}
	sortFindings(out)
	return out
}

// supEntry is one //lint:ignore directive with its usage flag.
type supEntry struct {
	rules    map[string]bool
	ruleList string // the comma list as written, for messages
	file     string
	line     int
	col      int
	used     bool
}

// supTable indexes a package's directives by the lines they cover
// (the directive's own line and the line below it).
type supTable struct {
	byLine  map[string]map[int][]*supEntry
	entries []*supEntry
}

// suppress reports whether rule is silenced at file:line, marking
// every covering directive used.
func (t *supTable) suppress(file string, line int, rule string) bool {
	hit := false
	for _, e := range t.byLine[file][line] {
		if e.rules[rule] {
			e.used = true
			hit = true
		}
	}
	return hit
}

const ignorePrefix = "//lint:ignore"

// collectSuppressions scans every comment of the package (test files
// included) for //lint:ignore directives. A well-formed directive
// suppresses the named rules on its own line and on the line directly
// below it; malformed directives are returned as findings.
func collectSuppressions(pkg *Package) (*supTable, []Finding) {
	sup := &supTable{byLine: make(map[string]map[int][]*supEntry)}
	var bad []Finding
	for _, f := range pkg.AllFiles() {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				p := pkg.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:ignorefoo — not ours
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Finding{
						Rule: "directive", File: p.Filename, Line: p.Line, Col: p.Column,
						Message: "malformed //lint:ignore: want \"//lint:ignore rule[,rule] reason\"",
					})
					continue
				}
				e := &supEntry{
					rules:    make(map[string]bool),
					ruleList: fields[0],
					file:     p.Filename,
					line:     p.Line,
					col:      p.Column,
				}
				for _, rule := range strings.Split(fields[0], ",") {
					e.rules[rule] = true
				}
				sup.entries = append(sup.entries, e)
				byFile := sup.byLine[p.Filename]
				if byFile == nil {
					byFile = make(map[int][]*supEntry)
					sup.byLine[p.Filename] = byFile
				}
				for _, line := range []int{p.Line, p.Line + 1} {
					byFile[line] = append(byFile[line], e)
				}
			}
		}
	}
	return sup, bad
}

// inPackages returns a scope predicate matching exactly the given
// import paths.
func inPackages(paths ...string) func(string) bool {
	set := make(map[string]bool, len(paths))
	for _, p := range paths {
		set[p] = true
	}
	return func(p string) bool { return set[p] }
}

// anyPackage matches every package.
func anyPackage(string) bool { return true }

// DefaultRules returns the repo's rule set with its production
// scopes. The scopes track the blast radius of each failure mode:
// map-order and seeded-randomness hazards invalidate simulator and
// model reproducibility, float equality destabilises the model's
// fixed-point iteration, and the documentation rule keeps the
// model/topology surface traceable to the paper.
func DefaultRules() []Rule {
	simulation := inPackages(
		"starperf/internal/desim",
		"starperf/internal/routing",
		"starperf/internal/experiments",
		"starperf/internal/faults",
		"starperf/internal/obs",
		"starperf/internal/jobs",
		"starperf/internal/cache",
		"starperf/internal/server",
		"starperf/internal/journal",
		"starperf/internal/fsx",
		"starperf/internal/cluster",
		"starperf/internal/bounds",
		"starperf/internal/netx",
		"starperf/internal/soak",
		"starperf/internal/model",
		"starperf/client",
	)
	numerical := inPackages(
		"starperf/internal/model",
		"starperf/internal/queueing",
		"starperf/internal/bounds",
	)
	deterministic := func(p string) bool {
		// The serving layer, the journal and the public client are the
		// internal-facing packages allowed the wall clock: request
		// latency histograms measure real time by definition, the
		// journal stamps fsync timing, and the client seeds retry
		// jitter. The engine they schedule (jobs, cache, experiments,
		// desim) stays clock-free; the chaos seam (fsx) draws only
		// from explicitly seeded fault plans.
		return strings.HasPrefix(p, "starperf/internal/") &&
			p != "starperf/internal/lint" &&
			p != "starperf/internal/server" &&
			p != "starperf/internal/journal"
	}
	documented := inPackages(
		"starperf/internal/model",
		"starperf/internal/stargraph",
	)
	// The interprocedural rules (phase two over the call graph).
	// iounderlock exempts the two packages whose contract is I/O under
	// their own lock: the journal's WAL serialises writers through
	// j.mu by design, and fsx.Faulty brackets injected faults with a
	// bookkeeping mutex. Everyone else holding a lock across I/O —
	// including a lock held across a *call into* those packages — is
	// the PR 5 fsync-under-p.mu bug and gets flagged.
	ioScope := func(p string) bool {
		return p != "starperf/internal/journal" && p != "starperf/internal/fsx"
	}
	// clockseam guards the deterministic core: the packages whose
	// behaviour TestDeterminismByteIdentical freezes byte-for-byte,
	// plus the consistent-hash ring — every node and client must
	// compute identical placement from the member list alone. The
	// chaos fabric (netx) and the soak harness join the scope because
	// their whole value is replayability: fault schedules and op
	// sequences must derive from seeds, never the wall clock (sleeping
	// and deadlines are fine; reading the clock is not).
	clockCore := inPackages(
		"starperf/internal/desim",
		"starperf/internal/jobs",
		"starperf/internal/journal",
		"starperf/internal/cluster",
		"starperf/internal/bounds",
		"starperf/internal/netx",
		"starperf/internal/soak",
	)
	// errclass anchors at the public surface: the root api.go package,
	// the HTTP client, and the ring package the client re-exposes
	// through LearnRing. cfgerr is the classifier, so its own
	// constructors are exempt leaves.
	// netx and soak join the anchor set: netx's RoundTripper surfaces
	// errors straight to retry classification, and soak's report is
	// consumed by CI — neither may mint unclassifiable errors.
	errSurface := inPackages("starperf", "starperf/client", "starperf/internal/cluster",
		"starperf/internal/bounds", "starperf/internal/netx", "starperf/internal/soak")
	errClassifier := inPackages("starperf/internal/cfgerr")
	// bodyclose covers everything that does HTTP: the client, the
	// serving/forwarding layer, and now the fault fabric (which wraps
	// and re-bodies responses) and the soak driver.
	httpScope := inPackages("starperf/client", "starperf/internal/server", "starperf/internal/cluster",
		"starperf/internal/netx", "starperf/internal/soak")
	return []Rule{
		NewMapOrder(simulation),
		NewFloatEq(numerical, "EqualWithin", "Close", "approxEq"),
		NewSeedRand(deterministic),
		NewAPIErr("starperf", anyPackage),
		NewEqDoc(documented),
		NewIOUnderLock(ioScope),
		NewLockOrder(anyPackage),
		NewClockSeam(clockCore),
		NewErrClass(errSurface, errClassifier),
		NewBodyClose(httpScope),
	}
}

// rootIdent unwraps selectors, indexing, dereferences and parens down
// to the base identifier of an lvalue, or nil when the base is not an
// identifier (e.g. a call result).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}
