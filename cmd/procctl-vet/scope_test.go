package main

import (
	"os"
	"slices"
	"testing"

	"procctl/internal/analysis"
)

// `make procctl-vet` is one run over "./...". These packages used to be
// passed to it a second time by name, in case a scope regression dropped
// one from that run without anything failing; this is that guard: each
// must be among the packages "./..." expands to, and still be held to
// the policy it is listed under.
func TestDefaultPatternKeepsEveryPackageInScope(t *testing.T) {
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
	for _, c := range []struct {
		path         string
		sim, ordered bool // seed-deterministic; map order must not leak
	}{
		{"procctl/internal/core", true, true},
		{"procctl/internal/flight", true, true},
		{"procctl/internal/metrics", true, true},
		{"procctl/internal/faultinject", true, true},
		{"procctl/internal/journal", true, true},
		{"procctl/internal/trace", false, true},
		{"procctl/cmd/procctl-bench", false, false},
	} {
		if !slices.Contains(paths, c.path) {
			t.Errorf("./... no longer reaches %s: procctl-vet would pass without looking at it", c.path)
		}
		if got := analysis.IsSimPath(c.path); got != c.sim {
			t.Errorf("%s: in the determinism scope = %v, want %v", c.path, got, c.sim)
		}
		if got := analysis.IsOrderedPath(c.path); got != c.ordered {
			t.Errorf("%s: in the map-order scope = %v, want %v", c.path, got, c.ordered)
		}
	}
}
