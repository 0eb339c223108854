// Package analysis is a stdlib-only static-analysis framework for this
// repository. It exists because the entire experimental claim of the
// reproduction rests on the simulator being deterministic: identical
// seeds must yield identical schedules, or the paper's figures are not
// reproducible. The four analyzers (nondeterminism, maporder,
// lockdiscipline, ctxleak) enforce that invariant — plus basic lock
// discipline in the real-concurrency runtime — at vet time, with
// findings suitable for CI. The cmd/procctl-vet command is the driver.
//
// # Determinism policy and exemptions
//
// The determinism analyzers apply only to the simulation packages (see
// SimPackages). The exemptions are explicit policy, not accidents:
//
//   - cmd/... is exempt: wall-clock timing for user-facing progress
//     output is fine there (cmd/procctl-sim uses time.Now to print
//     "[fig1 took 1.2s]" banners); nothing in cmd/ feeds back into
//     simulation state, so it cannot perturb event order.
//   - internal/runtime/... is exempt from nondeterminism: it is real
//     concurrency by design (the paper's user-level runtime transplanted
//     to modern Go). It is guarded instead by lockdiscipline, ctxleak,
//     and the -race stress tests under internal/runtime.
//   - internal/trace is exempt from nondeterminism (it is post-hoc
//     analysis, not simulation) but maporder still applies: rendering a
//     table from map-iteration order would make reports unstable.
//
// # Suppression pragmas
//
// A finding can be suppressed with a pragma comment on the same line or
// the line immediately above:
//
//	//procctl:allow-<pragma> <one-line justification>
//
// where <pragma> is the analyzer's pragma name (nondeterminism,
// maporder, unlocked, ctxleak). The justification is mandatory; a
// pragma without one is itself reported.
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

// Analyzer is one static check. Exactly one of Run (per-package) or
// RunProgram (whole-program, interprocedural) is set.
type Analyzer struct {
	// Name identifies the analyzer in findings and in -list output.
	Name string
	// Doc is a one-paragraph description of what it checks.
	Doc string
	// Pragma is the suffix accepted in //procctl:allow-<Pragma> comments
	// to suppress this analyzer's findings.
	Pragma string
	// Run inspects the pass's package and reports findings.
	Run func(*Pass)
	// RunProgram inspects a whole-program call graph and reports
	// findings. Program analyzers see every loaded package at once and
	// may attach multi-hop call chains to diagnostics.
	RunProgram func(*ProgramPass)
}

// All returns every analyzer in presentation order: the per-package
// passes first, then the interprocedural (call-graph) passes.
func All() []*Analyzer {
	return []*Analyzer{Nondeterminism, MapOrder, LockDiscipline, CtxLeak, LockOrder, BlockingLocked}
}

// PackageAnalyzers returns the subset of analyzers that run one package
// at a time.
func PackageAnalyzers(analyzers []*Analyzer) []*Analyzer {
	var out []*Analyzer
	for _, az := range analyzers {
		if az.Run != nil {
			out = append(out, az)
		}
	}
	return out
}

// ProgramAnalyzers returns the subset of analyzers that need the whole
// program.
func ProgramAnalyzers(analyzers []*Analyzer) []*Analyzer {
	var out []*Analyzer
	for _, az := range analyzers {
		if az.RunProgram != nil {
			out = append(out, az)
		}
	}
	return out
}

// SimPackages lists the module-relative package prefixes whose behaviour
// must be a pure function of the experiment seed. The nondeterminism and
// maporder analyzers apply to these packages (and their subpackages)
// only. The list is closed under imports — no package on it imports a
// module package off it — so nothing a simulation calls escapes them.
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

// Pass is one analyzer run over one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Path is the package import path.
	Path string
	// IsSim marks packages whose behaviour must be seed-deterministic.
	IsSim bool

	pragmas  pragmaIndex
	findings []Finding
}

// Reportf records a finding at pos unless a matching suppression pragma
// covers that line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
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

func (p *Pass) pkgNameOf(id *ast.Ident) *types.Package {
	return pkgNameOf(p.Info, id)
}

// isPkgFunc reports whether call is pkgPath.<one of names>(...).
func (p *Pass) isPkgFunc(call *ast.CallExpr, pkgPath string, names ...string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pkg := p.pkgNameOf(id)
	if pkg == nil || pkg.Path() != pkgPath {
		return "", false
	}
	for _, n := range names {
		if sel.Sel.Name == n {
			return n, true
		}
	}
	return "", false
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

func collectPragmas(fset *token.FileSet, files []*ast.File) pragmaIndex {
	idx := make(pragmaIndex)
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
	return idx
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

// RunAnalyzers runs the given analyzers over a loaded package and
// returns the findings sorted by position. Pragmas with no
// justification are reported unconditionally: the escape hatch requires
// a reason.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Finding {
	pragmas := collectPragmas(pkg.Fset, pkg.Files)
	var out []Finding
	for _, byLine := range pragmas {
		for _, pr := range byLine {
			if pr.reason == "" {
				out = append(out, Finding{
					Analyzer: "pragma",
					Pos:      pr.pos,
					Message:  fmt.Sprintf("procctl:allow-%s pragma needs a one-line justification", pr.name),
				})
			}
		}
	}
	for _, az := range PackageAnalyzers(analyzers) {
		pass := &Pass{
			Analyzer: az,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Path:     pkg.Path,
			IsSim:    IsSimPath(pkg.Path),
			pragmas:  pragmas,
		}
		az.Run(pass)
		out = append(out, pass.findings...)
	}
	sortFindings(out)
	return out
}

func sortFindings(out []Finding) {
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
}

// ProgramPass is one program analyzer's run over a whole-program call
// graph. Suppression pragmas from every package in the program apply.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program

	pragmas  pragmaIndex
	findings []Finding
}

// Reportf records a finding at pos unless a matching suppression pragma
// covers that line in any loaded package.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...interface{}) {
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

// RunProgramAnalyzers builds one call graph over pkgs and runs every
// program analyzer in analyzers over it, returning findings sorted by
// position. (Reasonless-pragma findings are reported by RunAnalyzers,
// which the driver always runs per package; they are not duplicated
// here.)
func RunProgramAnalyzers(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Finding {
	program := ProgramAnalyzers(analyzers)
	if len(program) == 0 {
		return nil
	}
	prog := NewProgram(fset, pkgs)
	pragmas := make(pragmaIndex)
	for _, pkg := range prog.Pkgs {
		for file, byLine := range collectPragmas(pkg.Fset, pkg.Files) {
			pragmas[file] = byLine
		}
	}
	var out []Finding
	for _, az := range program {
		pass := &ProgramPass{Analyzer: az, Prog: prog, pragmas: pragmas}
		az.RunProgram(pass)
		out = append(out, pass.findings...)
	}
	sortFindings(out)
	return out
}
