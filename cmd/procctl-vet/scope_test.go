package main

import (
	"os"
	"slices"
	"strings"
	"testing"

	"procctl/internal/analysis"
)

// expandAll returns a loader at the module root and the packages "./..."
// expands to: what `make procctl-vet` looks at.
func expandAll(t *testing.T) (*analysis.Loader, []string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := analysis.FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := loader.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	return loader, paths
}

// `make procctl-vet` is one run over "./...". These packages used to be
// passed to it a second time by name, in case a scope regression dropped
// one from that run without anything failing; this is that guard: each
// must be among the packages "./..." expands to, and still be in the
// determinism scope (seed-deterministic, and map order must not leak).
func TestDefaultPatternKeepsEveryPackageInScope(t *testing.T) {
	_, paths := expandAll(t)
	for _, path := range []string{
		"procctl/internal/core",
		"procctl/internal/flight",
		"procctl/internal/metrics",
		"procctl/internal/faultinject",
		"procctl/internal/journal",
		"procctl/internal/trace",
	} {
		if !slices.Contains(paths, path) {
			t.Errorf("./... no longer reaches %s: procctl-vet would pass without looking at it", path)
		}
		if !analysis.IsSimPath(path) {
			t.Errorf("%s has left the determinism scope", path)
		}
	}
}

// The determinism scope is closed under imports: no package in it imports
// a module package outside it. The nondeterminism and maporder analyzers
// look at one package at a time, so this is what makes "every sim package
// is clean" mean "nothing a simulation calls reads a clock" — the
// property a whole-program pass (simpurity) used to chase across the
// scope's frontier when internal/trace sat outside it.
func TestSimScopeIsClosedUnderImports(t *testing.T) {
	loader, paths := expandAll(t)
	sims := 0
	for _, path := range paths {
		if !analysis.IsSimPath(path) {
			continue
		}
		sims++
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range pkg.Types.Imports() {
			if strings.HasPrefix(imp.Path(), loader.ModulePath+"/") && !analysis.IsSimPath(imp.Path()) {
				t.Errorf("%s imports %s, which is outside the determinism scope", path, imp.Path())
			}
		}
	}
	if sims < len(analysis.SimPackages) {
		t.Errorf("./... reached %d packages of the determinism scope, which lists %d", sims, len(analysis.SimPackages))
	}
}
