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

// checkFixture runs every analyzer over the fixture package, with a
// call graph of it alone, and matches findings against its
// `// want "substring"` comments, both directions.
func checkFixture(t *testing.T, pkg *Package) []Finding {
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
	pkgs := []*Package{pkg}
	findings := Run(pkg.Fset, pkgs, pkgs, All())
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

func TestMapOrderFixtures(t *testing.T) {
	checkFixture(t, loadFixture(t, "maporder/bad", "procctl/internal/trace/mapbad"))
	checkFixture(t, loadFixture(t, "maporder/good", "procctl/internal/trace/mapgood"))
}

func TestLockDisciplineFixtures(t *testing.T) {
	checkFixture(t, loadFixture(t, "lock/bad", "procctl/internal/runtime/lockbad"))
	checkFixture(t, loadFixture(t, "lock/good", "procctl/internal/runtime/lockgood"))
}

func TestLockOrderFixtures(t *testing.T) {
	requireMultiHop(t, checkFixture(t, loadFixture(t, "lockorder/bad", "procctl/internal/runtime/lockorderbad")))
	checkFixture(t, loadFixture(t, "lockorder/good", "procctl/internal/runtime/lockordergood"))
}

func TestBlockingLockedFixtures(t *testing.T) {
	requireMultiHop(t, checkFixture(t, loadFixture(t, "blockinglocked/bad", "procctl/internal/runtime/blockbad")))
	checkFixture(t, loadFixture(t, "blockinglocked/good", "procctl/internal/runtime/blockgood"))
}

// TestAllAnalyzers pins the analyzer roster: the four analyzers that
// each alone caught a seeded bug (EXPERIMENTS.md SIMPL-6), in
// presentation order, each documented with its own pragma, and all of
// one shape — a Run over one Pass.
func TestAllAnalyzers(t *testing.T) {
	want := []struct{ name, pragma string }{
		{"maporder", "maporder"},
		{"lockdiscipline", "unlocked"},
		{"lockorder", "lockorder"},
		{"blockinglocked", "blockinglocked"},
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() has %d analyzers, want %d", len(all), len(want))
	}
	for i, az := range all {
		if az.Name != want[i].name || az.Pragma != want[i].pragma || az.Doc == "" || az.Run == nil {
			t.Errorf("All()[%d] = %s (pragma %q), want %s (pragma %q), documented and runnable", i, az.Name, az.Pragma, want[i].name, want[i].pragma)
		}
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
	pkgs := []*Package{pkg}
	for _, f := range Run(l.Fset, pkgs, pkgs, All()) {
		t.Errorf("%s", f)
	}
}

// TestPragmaNeedsReason asserts that a reasonless pragma is itself a
// finding (even though it still suppresses, CI stays red until a
// justification is written), and so is a pragma that names no analyzer:
// a misspelling, or one left behind by a deleted analyzer.
func TestPragmaNeedsReason(t *testing.T) {
	pkgs := []*Package{loadFixture(t, "pragma/bad", "procctl/internal/runtime/pragmabad")}
	findings := Run(pkgs[0].Fset, pkgs, pkgs, All())
	if len(findings) != 2 {
		t.Fatalf("got %d findings %v, want exactly 2", len(findings), findings)
	}
	for i, want := range []string{"allow-unlocked pragma needs a one-line justification", "allow-unlockd names no analyzer"} {
		if f := findings[i]; f.Analyzer != "pragma" || !strings.Contains(f.Message, want) {
			t.Errorf("finding %d = %s, want a pragma finding containing %q", i, f, want)
		}
	}
}

// moduleRun is one cold run of every analyzer over the whole module —
// parse, type-check (the stdlib from source), call graph, the one pass —
// which is what `make procctl-vet` does.
// TestRepoIsClean checks its findings and TestVetTimingBudget its
// duration, so `make test` pays for one such run, not two.
var moduleRun struct {
	once     sync.Once
	paths    []string
	findings []Finding
	elapsed  time.Duration
	err      error
}

func runModule(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("whole-module analysis in -short mode")
	}
	moduleRun.once.Do(func() {
		start := time.Now()
		root, err := FindModuleRoot(".")
		if err != nil {
			moduleRun.err = err
			return
		}
		l, err := NewLoader(root) // cold loader: includes type-check cost
		if err != nil {
			moduleRun.err = err
			return
		}
		if moduleRun.paths, err = l.Expand([]string{"./..."}); err != nil {
			moduleRun.err = err
			return
		}
		var pkgs []*Package
		for _, path := range moduleRun.paths {
			pkg, err := l.Load(path)
			if err != nil {
				moduleRun.err = fmt.Errorf("loading %s: %w", path, err)
				return
			}
			pkgs = append(pkgs, pkg)
		}
		moduleRun.findings = Run(l.Fset, pkgs, l.Loaded(), All())
		moduleRun.elapsed = time.Since(start)
	})
	if moduleRun.err != nil {
		t.Fatal(moduleRun.err)
	}
}

// TestRepoIsClean runs every analyzer over the entire module — the same
// gate cmd/procctl-vet applies in CI. A regression anywhere in the sim
// or runtime packages fails this test with the offending position.
func TestRepoIsClean(t *testing.T) {
	runModule(t)
	if len(moduleRun.paths) < 15 {
		t.Fatalf("Expand(./...) found only %d packages: %v", len(moduleRun.paths), moduleRun.paths)
	}
	for _, f := range moduleRun.findings {
		t.Errorf("%s", f)
	}
}

// TestVetTimingBudget guards make check latency: the cold full-module
// run must stay within the budget, so the interprocedural passes never
// make the tier-1 gate painful. The budget is generous (CI machines are
// slow); the point is catching accidental blow-ups (e.g. losing summary
// memoization turns the pass exponential), not micro-regressions.
func TestVetTimingBudget(t *testing.T) {
	const budget = 90 * time.Second
	runModule(t)
	t.Logf("full vet pass: %d packages, %d findings in %v", len(moduleRun.paths), len(moduleRun.findings), moduleRun.elapsed)
	if moduleRun.elapsed > budget {
		t.Fatalf("full vet pass took %v, over the %v budget", moduleRun.elapsed, budget)
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
	f := Finding{Analyzer: "maporder", Message: "m"}
	f.Pos.Filename, f.Pos.Line, f.Pos.Column = "x.go", 3, 7
	if got, want := fmt.Sprint(f), "x.go:3:7: [maporder] m"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
