package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// The fixture loader is shared so the stdlib is type-checked once per
// test process.
var (
	loaderOnce sync.Once
	loaderErr  error
	loader     *Loader
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			loaderErr = err
			return
		}
		loader, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return loader
}

// loadFixture loads testdata/src/<dir> under a synthetic import path
// that places it in the right analysis scope.
func loadFixture(t *testing.T, dir, importPath string) *Package {
	t.Helper()
	l := sharedLoader(t)
	abs, err := filepath.Abs(filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(abs, importPath)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	return pkg
}

var wantRE = regexp.MustCompile(`want "([^"]+)"`)

// checkFixture runs all analyzers over the fixture and matches findings
// against its `// want "substring"` comments, both directions.
func checkFixture(t *testing.T, pkg *Package) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := make(map[key]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				wants[key{pos.Filename, pos.Line}] = m[1]
			}
		}
	}
	findings := RunAnalyzers(pkg, All())
	matched := make(map[key]bool)
	for _, f := range findings {
		k := key{f.Pos.Filename, f.Pos.Line}
		want, ok := wants[k]
		if !ok {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		if !strings.Contains(f.Message, want) {
			t.Errorf("finding at %s:%d = %q, want substring %q", k.file, k.line, f.Message, want)
		}
		matched[k] = true
	}
	for k, want := range wants {
		if !matched[k] {
			t.Errorf("missing finding at %s:%d matching %q", filepath.Base(k.file), k.line, want)
		}
	}
}

// checkProgramFixture builds one whole-program call graph over the
// given fixture packages, runs the interprocedural analyzers, and
// matches findings against `// want "substring"` comments in any of the
// packages, both directions.
func checkProgramFixture(t *testing.T, pkgs []*Package) []Finding {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := make(map[key]string)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					wants[key{pos.Filename, pos.Line}] = m[1]
				}
			}
		}
	}
	findings := RunProgramAnalyzers(pkgs[0].Fset, pkgs, All())
	matched := make(map[key]bool)
	for _, f := range findings {
		k := key{f.Pos.Filename, f.Pos.Line}
		want, ok := wants[k]
		if !ok {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		if !strings.Contains(f.Message, want) {
			t.Errorf("finding at %s:%d = %q, want substring %q", k.file, k.line, f.Message, want)
		}
		matched[k] = true
	}
	for k, want := range wants {
		if !matched[k] {
			t.Errorf("missing finding at %s:%d matching %q", filepath.Base(k.file), k.line, want)
		}
	}
	return findings
}

// requireMultiHop asserts at least one finding carries a call chain of
// two or more hops — the proof that the diagnostic crossed a function
// boundary, not just a line.
func requireMultiHop(t *testing.T, findings []Finding) {
	t.Helper()
	for _, f := range findings {
		if strings.Count(f.Message, "→") >= 2 {
			return
		}
	}
	t.Errorf("no finding carries a multi-hop call chain; got %v", findings)
}

func TestNondeterminismFixtures(t *testing.T) {
	checkFixture(t, loadFixture(t, "nondet/bad", "procctl/internal/sim/nondetbad"))
	checkFixture(t, loadFixture(t, "nondet/good", "procctl/internal/sim/nondetgood"))
}

func TestMapOrderFixtures(t *testing.T) {
	checkFixture(t, loadFixture(t, "maporder/bad", "procctl/internal/trace/mapbad"))
	checkFixture(t, loadFixture(t, "maporder/good", "procctl/internal/trace/mapgood"))
}

func TestLockDisciplineFixtures(t *testing.T) {
	checkFixture(t, loadFixture(t, "lock/bad", "procctl/internal/runtime/lockbad"))
	checkFixture(t, loadFixture(t, "lock/good", "procctl/internal/runtime/lockgood"))
}

func TestCtxLeakFixtures(t *testing.T) {
	checkFixture(t, loadFixture(t, "ctxleak/bad", "procctl/internal/runtime/leakbad"))
	checkFixture(t, loadFixture(t, "ctxleak/good", "procctl/internal/runtime/leakgood"))
}

func TestLockOrderFixtures(t *testing.T) {
	bad := loadFixture(t, "lockorder/bad", "procctl/internal/runtime/lockorderbad")
	findings := checkProgramFixture(t, []*Package{bad})
	requireMultiHop(t, findings)
	good := loadFixture(t, "lockorder/good", "procctl/internal/runtime/lockordergood")
	checkProgramFixture(t, []*Package{good})
}

func TestBlockingLockedFixtures(t *testing.T) {
	bad := loadFixture(t, "blockinglocked/bad", "procctl/internal/runtime/blockbad")
	findings := checkProgramFixture(t, []*Package{bad})
	requireMultiHop(t, findings)
	good := loadFixture(t, "blockinglocked/good", "procctl/internal/runtime/blockgood")
	checkProgramFixture(t, []*Package{good})
}

// TestAllAnalyzers pins the analyzer roster: six analyzers, distinct
// names and pragmas, each documented, split four per-package and two
// whole-program.
func TestAllAnalyzers(t *testing.T) {
	all := All()
	if len(all) != 6 {
		t.Fatalf("All() has %d analyzers, want 6", len(all))
	}
	names := make(map[string]bool)
	for _, az := range all {
		if az.Name == "" || az.Doc == "" || az.Pragma == "" {
			t.Errorf("analyzer %+v missing name, doc, or pragma", az)
		}
		if names[az.Name] {
			t.Errorf("duplicate analyzer name %q", az.Name)
		}
		names[az.Name] = true
		if (az.Run == nil) == (az.RunProgram == nil) {
			t.Errorf("analyzer %s must set exactly one of Run/RunProgram", az.Name)
		}
	}
	if got := len(PackageAnalyzers(all)); got != 4 {
		t.Errorf("PackageAnalyzers = %d, want 4", got)
	}
	if got := len(ProgramAnalyzers(all)); got != 2 {
		t.Errorf("ProgramAnalyzers = %d, want 2", got)
	}
}

// TestVetSelfCheck runs the full analyzer suite over internal/analysis
// itself: the analysis code must satisfy its own rules.
func TestVetSelfCheck(t *testing.T) {
	l := sharedLoader(t)
	pkg, err := l.Load(l.ModulePath + "/internal/analysis")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range RunAnalyzers(pkg, All()) {
		t.Errorf("per-package: %s", f)
	}
	for _, f := range RunProgramAnalyzers(l.Fset, []*Package{pkg}, All()) {
		t.Errorf("program: %s", f)
	}
}

// TestPragmaNeedsReason asserts that a reasonless pragma is itself a
// finding (even though it still suppresses, CI stays red until a
// justification is written).
func TestPragmaNeedsReason(t *testing.T) {
	pkg := loadFixture(t, "pragma/bad", "procctl/internal/runtime/pragmabad")
	findings := RunAnalyzers(pkg, All())
	if len(findings) != 1 {
		t.Fatalf("got %d findings %v, want exactly 1", len(findings), findings)
	}
	if f := findings[0]; f.Analyzer != "pragma" || !strings.Contains(f.Message, "needs a one-line justification") {
		t.Fatalf("got %s, want pragma-justification finding", f)
	}
}

// TestRepoIsClean runs every analyzer over the entire module — the same
// gate cmd/procctl-vet applies in CI. A regression anywhere in the sim
// or runtime packages fails this test with the offending position.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module analysis in -short mode")
	}
	l := sharedLoader(t)
	paths, err := l.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 15 {
		t.Fatalf("Expand(./...) found only %d packages: %v", len(paths), paths)
	}
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		for _, f := range RunAnalyzers(pkg, All()) {
			t.Errorf("%s", f)
		}
	}
	// Whole-program pass over the same universe. The shared loader may
	// also hold fixture packages from other tests; exclude testdata so
	// deliberate fixture bugs do not fail the repo gate.
	var pkgs []*Package
	for _, p := range l.Loaded() {
		if strings.Contains(p.Dir, string(filepath.Separator)+"testdata"+string(filepath.Separator)) {
			continue
		}
		pkgs = append(pkgs, p)
	}
	for _, f := range RunProgramAnalyzers(l.Fset, pkgs, All()) {
		t.Errorf("%s", f)
	}
}

// TestVetTimingBudget guards make check latency: a cold full-module
// run of every analyzer — parse, type-check (stdlib from source),
// per-package passes, call graph, interprocedural passes — must stay
// within the budget, so the interprocedural upgrade never makes the
// tier-1 gate painful. The budget is generous (CI machines are slow);
// the point is catching accidental blow-ups (e.g. losing summary
// memoization turns the pass exponential), not micro-regressions.
func TestVetTimingBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module analysis in -short mode")
	}
	const budget = 90 * time.Second
	start := time.Now()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root) // cold loader: includes type-check cost
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		n += len(RunAnalyzers(pkg, All()))
	}
	n += len(RunProgramAnalyzers(l.Fset, l.Loaded(), All()))
	elapsed := time.Since(start)
	t.Logf("full vet pass: %d packages, %d findings in %v", len(paths), n, elapsed)
	if elapsed > budget {
		t.Fatalf("full vet pass took %v, over the %v budget", elapsed, budget)
	}
}

func TestScopePredicates(t *testing.T) {
	cases := []struct {
		path string
		sim  bool
	}{
		{"procctl/internal/sim", true},
		{"procctl/internal/kernel", true},
		{"procctl/internal/experiments", true},
		{"procctl/internal/metrics", true},
		{"procctl/internal/trace", true},
		{"procctl/internal/runtime/coordinator", false},
		{"procctl/internal/runtime/pool", false},
		{"procctl/cmd/procctl-sim", false},
		{"procctl", false},
	}
	for _, c := range cases {
		if got := IsSimPath(c.path); got != c.sim {
			t.Errorf("IsSimPath(%q) = %v, want %v", c.path, got, c.sim)
		}
	}
}

func TestExpandSinglePackage(t *testing.T) {
	l := sharedLoader(t)
	paths, err := l.Expand([]string{"./internal/sim"})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0] != l.ModulePath+"/internal/sim" {
		t.Fatalf("Expand(./internal/sim) = %v", paths)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "nondeterminism", Message: "m"}
	f.Pos.Filename, f.Pos.Line, f.Pos.Column = "x.go", 3, 7
	if got, want := fmt.Sprint(f), "x.go:3:7: [nondeterminism] m"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
