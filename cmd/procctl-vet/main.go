// Command procctl-vet runs this repository's custom static-analysis
// pass: the determinism, lock-discipline, and interprocedural analyzers
// in internal/analysis. The simulator's experimental claims hold only
// if identical seeds yield identical schedules, and the runtime's
// scalability claims hold only if no lock is held across blocking work;
// procctl-vet enforces the invariants behind both statically, in CI.
//
// Usage:
//
//	procctl-vet [-list] [-format text|sarif] [pattern ...]
//
// Patterns are package directories relative to the module root
// ("./...", "./internal/sim", "internal/kernel/..."); the default is
// "./...". Exit code 0 means no findings, 1 means findings were
// reported, 2 means the analysis itself failed (bad pattern, code that
// does not type-check).
//
// The per-package analyzers (nondeterminism, maporder, lockdiscipline,
// ctxleak) run over each requested package; the whole-program analyzers
// (lockorder, blockinglocked) run once over the call graph
// of every package loaded — including packages pulled in as imports of
// the requested set.
//
// -format sarif writes SARIF 2.1.0 to stdout for GitHub code scanning;
// the exit-code contract is unchanged.
//
// Findings are suppressed line-by-line with a justified pragma:
//
//	//procctl:allow-<name> <one-line justification>
//
// on the offending line or the line above, where <name> is the
// analyzer's pragma (printed by -list). A pragma without a
// justification is itself a finding.
package main

import (
	"flag"
	"fmt"
	"os"

	"procctl/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "describe the analyzers and the exemption policy, then exit")
	format := flag.String("format", "text", "output format: text or sarif")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: procctl-vet [-list] [-format text|sarif] [pattern ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *format != "text" && *format != "sarif" {
		fatal(fmt.Errorf("unknown -format %q (want text or sarif)", *format))
	}

	if *list {
		fmt.Println("procctl-vet analyzers (per-package):")
		for _, az := range analysis.PackageAnalyzers(analysis.All()) {
			fmt.Printf("\n  %s (pragma: //procctl:allow-%s <reason>)\n    %s\n", az.Name, az.Pragma, az.Doc)
		}
		fmt.Println("\nprocctl-vet analyzers (whole-program, call-graph):")
		for _, az := range analysis.ProgramAnalyzers(analysis.All()) {
			fmt.Printf("\n  %s (pragma: //procctl:allow-%s <reason>)\n    %s\n", az.Name, az.Pragma, az.Doc)
		}
		fmt.Println("\nDeterminism scope (identical seed must imply identical schedule):")
		for _, p := range analysis.SimPackages {
			fmt.Printf("  %s\n", p)
		}
		fmt.Println("\nExplicit exemptions (policy, not accident):")
		fmt.Println("  cmd/*               wall-clock timing for user-facing progress output only")
		fmt.Println("                      (cmd/procctl-sim times each experiment with time.Now;")
		fmt.Println("                      nothing in cmd/ feeds back into simulation state)")
		fmt.Println("  internal/runtime/*  real concurrency by design; guarded by lockdiscipline,")
		fmt.Println("                      ctxleak, lockorder, blockinglocked, and")
		fmt.Println("                      `go test -race ./internal/runtime/...`")
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

	var findings []analysis.Finding
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fatal(err)
		}
		findings = append(findings, analysis.RunAnalyzers(pkg, analysis.All())...)
	}
	// Whole-program passes over everything the loader has seen (the
	// requested packages plus their module-local imports).
	findings = append(findings, analysis.RunProgramAnalyzers(loader.Fset, loader.Loaded(), analysis.All())...)

	switch *format {
	case "sarif":
		if err := analysis.WriteSARIF(os.Stdout, root, analysis.All(), findings); err != nil {
			fatal(err)
		}
	default:
		for _, f := range findings {
			fmt.Println(f)
		}
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
