// Command procctl-vet runs this repository's custom static-analysis
// pass: the analyzers in internal/analysis, each of which catches a bug
// that no test, golden or race run in `make check` does (EXPERIMENTS.md
// SIMPL-6). The simulator's experimental claims hold only if identical
// seeds yield identical schedules, and the runtime's scalability claims
// hold only if no lock is held across blocking work; procctl-vet
// enforces what the tests cannot, statically, in CI.
//
// Usage:
//
//	procctl-vet [-list] [pattern ...]
//
// Patterns are package directories relative to the module root
// ("./...", "./internal/sim", "internal/kernel/..."); the default is
// "./...". Exit code 0 means no findings, 1 means findings were
// reported, 2 means the analysis itself failed (bad pattern, code that
// does not type-check).
//
// Every analyzer runs once over the call graph of every package loaded —
// the requested ones plus their module-local imports. maporder and
// lockdiscipline report only in the requested packages; lockorder and
// blockinglocked follow calls into the imports too.
//
// Findings are suppressed line-by-line with a justified pragma:
//
//	//procctl:allow-<name> <one-line justification>
//
// on the offending line or the line above, where <name> is the
// analyzer's pragma (printed by -list). A pragma without a
// justification, or naming no analyzer, is itself a finding.
package main

import (
	"flag"
	"fmt"
	"os"

	"procctl/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "describe the analyzers and the exemption policy, then exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: procctl-vet [-list] [pattern ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		fmt.Println("procctl-vet analyzers:")
		for _, az := range analysis.All() {
			fmt.Printf("\n  %s (pragma: //procctl:allow-%s <reason>)\n    %s\n", az.Name, az.Pragma, az.Doc)
		}
		fmt.Println("\nmaporder scope (identical seed must imply identical schedule):")
		for _, p := range analysis.SimPackages {
			fmt.Printf("  %s\n", p)
		}
		fmt.Println("\nExplicit exemptions (policy, not accident):")
		fmt.Println("  cmd/*               outside the maporder scope: nothing in cmd/ feeds back")
		fmt.Println("                      into simulation state")
		fmt.Println("  internal/runtime/*  outside the maporder scope: real concurrency by design;")
		fmt.Println("                      guarded by lockdiscipline, lockorder, blockinglocked,")
		fmt.Println("                      and `go test -race ./internal/runtime/...`")
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := analysis.FindModuleRoot(wd)
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fatal(err)
	}
	paths, err := loader.Expand(patterns)
	if err != nil {
		fatal(err)
	}

	pkgs := make([]*analysis.Package, len(paths))
	for i, path := range paths {
		if pkgs[i], err = loader.Load(path); err != nil {
			fatal(err)
		}
	}
	findings := analysis.Run(loader.Fset, pkgs, loader.Loaded(), analysis.All())
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "procctl-vet: %d finding(s) in %d package(s) examined\n", len(findings), len(paths))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "procctl-vet:", err)
	os.Exit(2)
}
