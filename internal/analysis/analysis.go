// Package analysis is a stdlib-only static-analysis framework for this
// repository, holding the checks that no test, golden or race run in
// `make check` does. Four analyzers remain, each because it alone caught
// a bug seeded into the tree (EXPERIMENTS.md SIMPL-6): maporder (map
// iteration order leaking into simulation event order), lockdiscipline
// (a mutex-guarded field read without the mutex, on a path no -race test
// runs), lockorder (a lock-order cycle) and blockinglocked (member code
// or a channel send under a lock). A wall-clock read, math/rand or a
// goroutine in a simulation package, and an unjoined goroutine in the
// runtime, are left to the same-seed goldens, the benchmark's serial-pass
// check and the race and leak tests, which caught each. The
// cmd/procctl-vet command is the driver.
//
// Every analyzer runs through one Pass over one Program, the call graph
// of every loaded package. Its per-function summaries (callgraph.go) are
// the one walk of a function body that tracks a lockset: lockdiscipline
// reads the receiver-field accesses they record, lockorder and
// blockinglocked their lock edges, calls and blocking operations.
//
// maporder and lockdiscipline report only in the packages asked for
// (Pass.Pkgs). maporder applies only to the simulation packages
// (SimPackages), where an order leak changes a seed's schedule or report;
// cmd/... and internal/runtime/... are outside them by policy (nothing
// there feeds back into a simulation). lockorder and blockinglocked root
// in the loaded packages with real concurrency (internal/runtime,
// internal/ctrl, internal/metrics).
//
// # Suppression pragmas
//
// A finding can be suppressed with a pragma comment on the same line or
// the line immediately above:
//
//	//procctl:allow-<pragma> <one-line justification>
//
// where <pragma> is the analyzer's pragma name (maporder, unlocked,
// lockorder, blockinglocked). The justification is mandatory; a pragma
// without one, or naming no analyzer, is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Finding is one report from an analyzer.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in findings and in -list output.
	Name string
	// Doc is a one-paragraph description of what it checks.
	Doc string
	// Pragma is the suffix accepted in //procctl:allow-<Pragma> comments
	// to suppress this analyzer's findings.
	Pragma string
	// Run inspects the pass and reports findings.
	Run func(*Pass)
}

// All returns every analyzer in presentation order.
func All() []*Analyzer {
	return []*Analyzer{MapOrder, LockDiscipline, LockOrder, BlockingLocked}
}

// SimPackages lists the module-relative package prefixes whose behaviour
// must be a pure function of the experiment seed. The maporder analyzer
// applies to these packages (and their subpackages) only. The list is
// closed under imports — no package on it imports a module package off
// it — so nothing a simulation calls escapes them.
var SimPackages = []string{
	"internal/sim",
	"internal/machine",
	"internal/kernel",
	"internal/threads",
	"internal/experiments",
	"internal/apps",
	"internal/core",
	"internal/ctrl",
	"internal/metrics",
	"internal/faultinject",
	"internal/flight",
	// journal is imported by ctrl's replay harness: its record encoding
	// and replay semantics must be pure (injected clocks, no map
	// iteration) so journal replay is a pure function of the record
	// stream.
	"internal/journal",
	// trace is imported by experiments, and its reports and tables must
	// not leak map-iteration order.
	"internal/trace",
}

// relPath strips the module path prefix from an import path, so policy
// lists can be written module-relative.
func relPath(importPath string) string {
	if i := strings.Index(importPath, "internal/"); i >= 0 {
		return importPath[i:]
	}
	return importPath
}

func underAny(importPath string, prefixes []string) bool {
	rel := relPath(importPath)
	for _, p := range prefixes {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// IsSimPath reports whether the import path is in the deterministic
// simulation set.
func IsSimPath(importPath string) bool { return underAny(importPath, SimPackages) }

// Pass is one analyzer's run over a program.
type Pass struct {
	Analyzer *Analyzer
	// Prog is the call graph of every loaded package.
	Prog *Program
	// Pkgs are the packages asked for, all of them in Prog: the ones
	// maporder and lockdiscipline report in.
	Pkgs []*Package

	pragmas  pragmaIndex
	findings []Finding
}

// Reportf records a finding at pos unless a matching suppression pragma
// covers that line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Prog.Fset.Position(pos)
	if p.pragmas.suppresses(p.Analyzer.Pragma, position) {
		return
	}
	p.findings = append(p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// pkgNameOf resolves an identifier to the imported package it names, or
// nil if it is not a package qualifier.
func pkgNameOf(info *types.Info, id *ast.Ident) *types.Package {
	if obj, ok := info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported()
		}
	}
	return nil
}

// pragma is one //procctl:allow-<name> <reason> comment.
type pragma struct {
	name   string
	reason string
	pos    token.Position
}

// pragmaIndex maps file -> line -> pragma.
type pragmaIndex map[string]map[int]pragma

var pragmaRE = regexp.MustCompile(`^//procctl:allow-([a-z]+)(?:\s+(.*))?$`)

// add indexes the pragmas in files.
func (idx pragmaIndex) add(fset *token.FileSet, files []*ast.File) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := pragmaRE.FindStringSubmatch(strings.TrimSpace(c.Text))
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := idx[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]pragma)
					idx[pos.Filename] = byLine
				}
				byLine[pos.Line] = pragma{name: m[1], reason: strings.TrimSpace(m[2]), pos: pos}
			}
		}
	}
}

// suppresses reports whether a pragma named name covers the line of pos
// (same line or the line immediately above).
func (idx pragmaIndex) suppresses(name string, pos token.Position) bool {
	byLine := idx[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if pr, ok := byLine[line]; ok && pr.name == name {
			return true
		}
	}
	return false
}

// Run builds one call graph over loaded — the packages asked for, pkgs,
// plus whatever they import from the module — runs the analyzers over
// it, and returns their findings sorted by position. Pragmas in pkgs
// with no justification, and pragmas that name no analyzer in All(), are
// reported unconditionally: the escape hatch requires a reason, and a
// misspelled or orphaned pragma suppresses nothing.
func Run(fset *token.FileSet, pkgs, loaded []*Package, analyzers []*Analyzer) []Finding {
	prog := newProgram(fset, loaded)
	pragmas := make(pragmaIndex)
	for _, pkg := range prog.Pkgs {
		pragmas.add(fset, pkg.Files)
	}
	known := make(map[string]bool)
	for _, az := range All() {
		known[az.Pragma] = true
	}
	var out []Finding
	pragmaFinding := func(pr pragma, format string) {
		out = append(out, Finding{Analyzer: "pragma", Pos: pr.pos, Message: fmt.Sprintf(format, pr.name)})
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, pr := range pragmas[fset.Position(f.Pos()).Filename] {
				if !known[pr.name] {
					pragmaFinding(pr, "procctl:allow-%s names no analyzer (procctl-vet -list prints each one's pragma)")
				}
				if pr.reason == "" {
					pragmaFinding(pr, "procctl:allow-%s pragma needs a one-line justification")
				}
			}
		}
	}
	for _, az := range analyzers {
		pass := &Pass{Analyzer: az, Prog: prog, Pkgs: pkgs, pragmas: pragmas}
		az.Run(pass)
		out = append(out, pass.findings...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if out[i].Analyzer != out[j].Analyzer {
			return out[i].Analyzer < out[j].Analyzer
		}
		return out[i].Message < out[j].Message
	})
	return out
}
