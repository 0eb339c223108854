package analysis

// Call-graph construction for the analyzers that track a lockset
// (lockdiscipline, lockorder, blockinglocked). The graph is built from
// the ASTs of every
// module-local package the loader has seen, using only go/ast and
// go/types:
//
//   - direct calls to package functions and concrete methods resolve to
//     their *ast.FuncDecl;
//   - interface method calls resolve by class-hierarchy analysis (CHA):
//     every module-local named type whose method set satisfies the
//     interface contributes its method as a possible callee;
//   - calls through function values (fields, parameters, locals) and
//     method values are NOT tracked — this is the documented soundness
//     limit; the -race stress tests are the dynamic complement.
//
// Each function gets one summary (cached, computed once per run): the
// locks it acquires, the "acquires B while holding A" edges it creates
// locally, every resolved call site with the lockset held at that point,
// the potentially blocking operations it performs, and every access to a
// field of its receiver with the lockset held there (what lockdiscipline
// reads). The interprocedural analyzers combine summaries
// transitively, carrying a witness chain so diagnostics can show the
// full caller → callee path to the offending site.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Program is the whole-program view over a set of loaded packages.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package // sorted by import path

	nodes map[*types.Func]*FuncNode
	all   []*FuncNode // deterministic order: package path, then file, then position

	namedOnce bool
	named     []*types.Named // module-local named types, for CHA
	implCache map[implKey][]*FuncNode
	lockMemo  map[*summary]map[string]*lockWitness
	blockMemo map[*summary]*blockWitness
}

// FuncNode is one function or method with a body in the program.
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	sum  *summary
}

// Name returns a human-readable name: pkgname.Func or pkgname.(*T).Method.
func (n *FuncNode) Name() string {
	pkg := n.Pkg.Types.Name()
	if recv := n.Obj.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		star := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			star = "*"
		}
		if named, ok := t.(*types.Named); ok {
			return fmt.Sprintf("%s.(%s%s).%s", pkg, star, named.Obj().Name(), n.Obj.Name())
		}
	}
	return pkg + "." + n.Obj.Name()
}

type implKey struct {
	iface *types.Interface
	name  string
}

// newProgram indexes the packages (typically Loader.Loaded()) into a
// whole-program call graph. Summaries are computed lazily and cached.
func newProgram(fset *token.FileSet, pkgs []*Package) *Program {
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	prog := &Program{
		Fset:      fset,
		Pkgs:      sorted,
		nodes:     make(map[*types.Func]*FuncNode),
		implCache: make(map[implKey][]*FuncNode),
		lockMemo:  make(map[*summary]map[string]*lockWitness),
		blockMemo: make(map[*summary]*blockWitness),
	}
	for _, pkg := range sorted {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &FuncNode{Obj: obj, Decl: fd, Pkg: pkg}
				prog.nodes[obj] = n
				prog.all = append(prog.all, n)
			}
		}
	}
	return prog
}

// Funcs returns every function in deterministic order.
func (prog *Program) Funcs() []*FuncNode { return prog.all }

// nodeOf resolves a types.Func (possibly a generic instantiation) to its
// program node, or nil for functions outside the loaded packages.
func (prog *Program) nodeOf(obj *types.Func) *FuncNode {
	if obj == nil {
		return nil
	}
	if n, ok := prog.nodes[obj]; ok {
		return n
	}
	return prog.nodes[obj.Origin()]
}

// moduleNamedTypes collects every named type declared in the program,
// sorted for deterministic CHA results.
func (prog *Program) moduleNamedTypes() []*types.Named {
	if prog.namedOnce {
		return prog.named
	}
	prog.namedOnce = true
	for _, pkg := range prog.Pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names() // already sorted
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				prog.named = append(prog.named, named)
			}
		}
	}
	return prog.named
}

// implementers returns the program functions that could be the dynamic
// target of a call to iface method name — class-hierarchy analysis over
// module-local named types.
func (prog *Program) implementers(iface *types.Interface, name string) []*FuncNode {
	key := implKey{iface, name}
	if out, ok := prog.implCache[key]; ok {
		return out
	}
	var out []*FuncNode
	for _, named := range prog.moduleNamedTypes() {
		if types.IsInterface(named.Underlying()) {
			continue
		}
		ptr := types.NewPointer(named)
		if !types.Implements(ptr, iface) && !types.Implements(named, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), name)
		if m, ok := obj.(*types.Func); ok {
			if n := prog.nodeOf(m); n != nil {
				out = append(out, n)
			}
		}
	}
	prog.implCache[key] = out
	return out
}

// --- summaries -------------------------------------------------------

// lockClass identifies a mutex for the lock graph: a (type, field) pair
// for struct-held mutexes, a package-level variable, or a function-local
// variable (unique per declaration site).
type lockClass struct {
	Key  string // stable identity, e.g. "procctl/internal/runtime/pool.Pool.mu"
	Disp string // display form, e.g. "pool.Pool.mu"
	Read bool   // acquired via RLock
}

type heldLock struct {
	class lockClass
	pos   token.Pos
	// assumed marks a lock the function did not take itself: a *Locked
	// method's receiver mutex, or what a callback literal's definition
	// site holds. Field accesses see it; lock edges, call sites and
	// blocking operations do not — to lockorder and blockinglocked the
	// function is an independent root.
	assumed bool
}

// fieldAccess is one read or write of a field of the receiver.
type fieldAccess struct {
	field string
	pos   token.Pos
	write bool
	held  []heldLock
}

// callSite is one resolved call with the lockset held at that point.
type callSite struct {
	held    []heldLock
	targets []*FuncNode // possible callees (1 for direct, n for CHA)
	iface   string      // non-empty: "Iface.Method" for dynamic dispatch
	desc    string      // callee description for diagnostics
	pos     token.Pos
}

// blockOp is one potentially blocking operation.
type blockOp struct {
	held []heldLock
	pos  token.Pos
	desc string // "channel send", "net I/O via (net.Conn).Read", ...
}

// lockEdge is one local "acquires To while holding From" observation.
type lockEdge struct {
	from, to lockClass
	fromPos  token.Pos // where From was acquired
	toPos    token.Pos // where To was acquired under it
}

// summary is the per-function abstraction the lock analyzers consume.
// literals holds sub-summaries for func literals that are NOT invoked at
// their definition site (callbacks): their lock behaviour is analyzed as
// independent roots, and their field accesses are the enclosing
// method's receiver's.
type summary struct {
	node     *FuncNode // nil for literal sub-summaries
	name     string    // display name ("pool.(*Pool).worker", "func literal at …")
	acquires []heldLock
	edges    []lockEdge
	calls    []callSite
	blocks   []blockOp
	fields   []fieldAccess
	literals []*summary
}

// Summary computes (once) and returns the node's summary.
func (prog *Program) Summary(n *FuncNode) *summary {
	if n.sum == nil {
		n.sum = prog.summarize(n)
	}
	return n.sum
}

func (prog *Program) summarize(n *FuncNode) *summary {
	s := &summary{node: n, name: n.Name()}
	w := &sumWalker{prog: prog, pkg: n.Pkg, out: s}
	var held []heldLock
	if recv := n.Decl.Recv; recv != nil && len(recv.List[0].Names) == 1 {
		w.recv = n.Pkg.Info.Defs[recv.List[0].Names[0]]
		if assumedHeld(n.Decl) {
			if g, ok := guardOf(n.Obj); ok {
				held = []heldLock{{class: g.class, assumed: true}}
			}
		}
	}
	w.walkStmts(n.Decl.Body.List, held)
	return s
}

// sumWalker walks one function body tracking the held lockset. A held
// slice is never changed in place — acquire and release return new ones
// — so a branch may share it and a record may keep it.
type sumWalker struct {
	prog *Program
	pkg  *Package
	out  *summary
	recv types.Object // the method's receiver, nil in a function
}

// taken copies the locks of held the function took itself.
func taken(held []heldLock) []heldLock {
	return slices.DeleteFunc(slices.Clone(held), func(h heldLock) bool { return h.assumed })
}

func (w *sumWalker) walkStmts(stmts []ast.Stmt, held []heldLock) []heldLock {
	for _, s := range stmts {
		held = w.walkStmt(s, held)
	}
	return held
}

func (w *sumWalker) walkStmt(s ast.Stmt, held []heldLock) []heldLock {
	switch s := s.(type) {
	case *ast.ExprStmt:
		return w.walkExpr(s.X, held, true)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to the end of the
		// function; other deferred calls are approximated as running
		// with the lockset current at the defer statement.
		if cls, op, ok := w.lockOp(s.Call); ok {
			w.walkExpr(s.Call.Fun, held, false) // s.f.mu reads the field f
			if op == opUnlock {
				return held // held until return
			}
			return w.acquire(held, cls, s.Call.Pos())
		}
		w.walkExpr(s.Call, held, true)
		return held
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.walkExpr(e, held, false)
		}
		for _, e := range s.Lhs {
			w.walkLHS(e, held)
		}
		return held
	case *ast.IncDecStmt:
		w.walkLHS(s.X, held)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.walkExpr(e, held, false)
		}
	case *ast.SendStmt:
		w.walkExpr(s.Chan, held, false)
		w.walkExpr(s.Value, held, false)
		w.block(held, s.Pos(), "channel send")
	case *ast.GoStmt:
		// The function and its arguments are evaluated here, but the
		// spawned goroutine starts with an empty lockset: a literal it
		// runs, as its body or as an argument, inherits nothing.
		for _, e := range append([]ast.Expr{s.Call.Fun}, s.Call.Args...) {
			if lit, ok := e.(*ast.FuncLit); ok {
				w.literal(lit, nil)
			} else {
				w.walkExpr(e, held, false)
			}
		}
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		w.walkExpr(s.Cond, held, false)
		w.walkStmts(s.Body.List, held)
		if s.Else != nil {
			w.walkStmt(s.Else, held)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			w.walkExpr(s.Cond, held, false)
		}
		inner := w.walkStmts(s.Body.List, held)
		if s.Post != nil {
			w.walkStmt(s.Post, inner)
		}
	case *ast.RangeStmt:
		w.walkExpr(s.X, held, false)
		if t := w.pkg.Info.TypeOf(s.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				w.block(held, s.Pos(), "channel receive (range)")
			}
		}
		w.walkStmts(s.Body.List, held)
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			w.walkExpr(s.Tag, held, false)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.walkExpr(e, held, false)
				}
				w.walkStmts(cc.Body, held)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		w.walkStmt(s.Assign, held)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, held)
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.block(held, s.Pos(), "select")
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				// The comm op itself: a send/receive case inside a
				// select is covered by the select report above.
				switch comm := cc.Comm.(type) {
				case *ast.SendStmt:
					w.walkExpr(comm.Chan, held, false)
					w.walkExpr(comm.Value, held, false)
				case *ast.ExprStmt:
					w.walkExprShallow(comm.X, held)
				case *ast.AssignStmt:
					for _, e := range comm.Rhs {
						w.walkExprShallow(e, held)
					}
					for _, e := range comm.Lhs {
						w.walkLHS(e, held)
					}
				}
				w.walkStmts(cc.Body, held)
			}
		}
	case *ast.BlockStmt:
		return w.walkStmts(s.List, held)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held)
	}
	return held
}

// walkExprShallow walks an expression without recording channel receives
// (used for select comm clauses, already reported as "select").
func (w *sumWalker) walkExprShallow(e ast.Expr, held []heldLock) {
	if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
		w.walkExpr(ue.X, held, false)
		return
	}
	w.walkExpr(e, held, false)
}

// walkExpr scans an expression. stmtPos marks an expression-statement
// call (so mutex ops mutate the lockset); the updated lockset is
// returned for that case.
func (w *sumWalker) walkExpr(e ast.Expr, held []heldLock, stmtPos bool) []heldLock {
	if e == nil {
		return held
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		if cls, op, ok := w.lockOp(e); ok {
			w.walkExpr(e.Fun, held, false) // s.f.mu reads the field f
			if !stmtPos {
				return held // mutex op in value position: ignore
			}
			if op == opLock {
				return w.acquire(held, cls, e.Pos())
			}
			return w.release(held, cls)
		}
		if lit, ok := e.Fun.(*ast.FuncLit); ok {
			// Immediately-invoked literal: inline with the current lockset.
			w.walkStmts(lit.Body.List, held)
		} else {
			w.call(e, held)
			w.walkExpr(e.Fun, held, false)
		}
		for _, a := range e.Args {
			w.walkExpr(a, held, false)
		}
	case *ast.FuncLit:
		w.literal(e, held)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			w.block(held, e.Pos(), "channel receive")
		}
		w.walkExpr(e.X, held, false)
	case *ast.SelectorExpr:
		if w.isRecv(e.X) {
			w.field(e, held, false)
			return held
		}
		w.walkExpr(e.X, held, false)
	case *ast.BinaryExpr:
		w.walkExpr(e.X, held, false)
		w.walkExpr(e.Y, held, false)
	case *ast.StarExpr:
		w.walkExpr(e.X, held, false)
	case *ast.ParenExpr:
		return w.walkExpr(e.X, held, stmtPos)
	case *ast.IndexExpr:
		w.walkExpr(e.X, held, false)
		w.walkExpr(e.Index, held, false)
	case *ast.IndexListExpr:
		w.walkExpr(e.X, held, false)
	case *ast.SliceExpr:
		w.walkExpr(e.X, held, false)
		w.walkExpr(e.Low, held, false)
		w.walkExpr(e.High, held, false)
		w.walkExpr(e.Max, held, false)
	case *ast.TypeAssertExpr:
		w.walkExpr(e.X, held, false)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.walkExpr(el, held, false)
		}
	case *ast.KeyValueExpr:
		w.walkExpr(e.Value, held, false)
	}
	return held
}

// walkLHS walks an assignment target: s.f = x, s.f[k] = x and s.f.g++
// all write the receiver field f; index expressions within are reads.
func (w *sumWalker) walkLHS(e ast.Expr, held []heldLock) {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if w.isRecv(e.X) {
			w.field(e, held, true)
			return
		}
		w.walkLHS(e.X, held)
	case *ast.IndexExpr:
		w.walkLHS(e.X, held)
		w.walkExpr(e.Index, held, false)
	case *ast.StarExpr:
		w.walkLHS(e.X, held)
	default:
		w.walkExpr(e, held, false)
	}
}

func (w *sumWalker) isRecv(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && w.recv != nil && w.pkg.Info.Uses[id] == w.recv
}

// field records an access to the receiver field sel names (a method
// value is no field access).
func (w *sumWalker) field(sel *ast.SelectorExpr, held []heldLock, write bool) {
	if _, ok := w.pkg.Info.Uses[sel.Sel].(*types.Var); ok {
		w.out.fields = append(w.out.fields, fieldAccess{field: sel.Sel.Name, pos: sel.Pos(), write: write, held: held})
	}
}

// literal records a non-invoked func literal as an independent root
// sub-summary: callbacks run later, elsewhere, so its lock edges, calls
// and blocking operations start from an empty lockset. Its accesses to
// the enclosing receiver's fields see inherited, the locks held where it
// is defined.
func (w *sumWalker) literal(lit *ast.FuncLit, inherited []heldLock) {
	pos := w.prog.Fset.Position(lit.Pos())
	sub := &summary{name: fmt.Sprintf("func literal at %s:%d", shortFile(pos.Filename), pos.Line)}
	lw := &sumWalker{prog: w.prog, pkg: w.pkg, out: sub, recv: w.recv}
	var held []heldLock
	for _, h := range inherited {
		h.assumed = true
		held = append(held, h)
	}
	lw.walkStmts(lit.Body.List, held)
	w.out.literals = append(w.out.literals, sub)
	w.out.literals = append(w.out.literals, sub.literals...)
	sub.literals = nil
}

func shortFile(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// acquire records a lock acquisition: a local edge from every held lock,
// plus the new lockset.
func (w *sumWalker) acquire(held []heldLock, cls lockClass, pos token.Pos) []heldLock {
	w.out.acquires = append(w.out.acquires, heldLock{class: cls, pos: pos})
	for _, h := range held {
		if !h.assumed {
			w.out.edges = append(w.out.edges, lockEdge{from: h.class, to: cls, fromPos: h.pos, toPos: pos})
		}
	}
	return append(held[:len(held):len(held)], heldLock{class: cls, pos: pos})
}

// release drops the most recent acquisition of cls.
func (w *sumWalker) release(held []heldLock, cls lockClass) []heldLock {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].class.Key == cls.Key {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	return held
}

func (w *sumWalker) block(held []heldLock, pos token.Pos, desc string) {
	w.out.blocks = append(w.out.blocks, blockOp{held: taken(held), pos: pos, desc: desc})
}

type mutexOpKind int

const (
	opLock mutexOpKind = iota
	opUnlock
)

var mutexLockNames = map[string]mutexOpKind{
	"Lock": opLock, "RLock": opLock, "TryLock": opLock, "TryRLock": opLock,
	"Unlock": opUnlock, "RUnlock": opUnlock,
}

// lockOp recognizes sync.Mutex/RWMutex Lock/Unlock calls and classifies
// the mutex.
func (w *sumWalker) lockOp(call *ast.CallExpr) (lockClass, mutexOpKind, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockClass{}, 0, false
	}
	op, ok := mutexLockNames[sel.Sel.Name]
	if !ok {
		return lockClass{}, 0, false
	}
	obj, ok := w.pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return lockClass{}, 0, false
	}
	full := obj.FullName()
	if !strings.HasPrefix(full, "(*sync.Mutex).") && !strings.HasPrefix(full, "(*sync.RWMutex).") {
		return lockClass{}, 0, false
	}
	cls, ok := w.classOf(sel.X)
	if !ok {
		return lockClass{}, 0, false
	}
	cls.Read = sel.Sel.Name == "RLock" || sel.Sel.Name == "RUnlock" || sel.Sel.Name == "TryRLock"
	return cls, op, true
}

// classOf names the mutex denoted by expr: a struct field (classified by
// owner type + field name, so every instance of the type shares a
// class), a package-level var, a local var (unique per declaration), or
// — when expr is not itself a mutex — an embedded mutex on expr's type.
func (w *sumWalker) classOf(expr ast.Expr) (lockClass, bool) {
	info := w.pkg.Info
	t := info.TypeOf(expr)
	if t == nil {
		return lockClass{}, false
	}
	if !isMutex(t) {
		// Promoted method on an embedding struct: s.Lock() where s
		// embeds sync.Mutex.
		if named, ok := derefNamed(t); ok {
			return lockClass{
				Key:  named.Obj().Pkg().Path() + "." + named.Obj().Name() + ".<embedded>",
				Disp: named.Obj().Pkg().Name() + "." + named.Obj().Name() + ".<embedded mutex>",
			}, true
		}
		return lockClass{}, false
	}
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		// owner.field — classify by the owner's named type.
		if ot := info.TypeOf(e.X); ot != nil {
			if named, ok := derefNamed(ot); ok {
				return lockClass{
					Key:  named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + e.Sel.Name,
					Disp: named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + e.Sel.Name,
				}, true
			}
		}
		// Package-level var accessed with a qualifier (pkg.mu).
		if obj, ok := info.Uses[e.Sel]; ok {
			if v, isVar := obj.(*types.Var); isVar && v.Pkg() != nil {
				return lockClass{Key: v.Pkg().Path() + "." + v.Name(), Disp: v.Pkg().Name() + "." + v.Name()}, true
			}
		}
	case *ast.Ident:
		if obj, ok := info.Uses[e]; ok {
			if v, isVar := obj.(*types.Var); isVar {
				if v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
					// Package-level mutex.
					return lockClass{Key: v.Pkg().Path() + "." + v.Name(), Disp: v.Pkg().Name() + "." + v.Name()}, true
				}
				// Function-local mutex: unique per declaration site.
				pos := w.prog.Fset.Position(v.Pos())
				return lockClass{
					Key:  fmt.Sprintf("%s:%d.%s", pos.Filename, pos.Line, v.Name()),
					Disp: fmt.Sprintf("%s (local, %s:%d)", v.Name(), shortFile(pos.Filename), pos.Line),
				}, true
			}
		}
	case *ast.ParenExpr:
		return w.classOf(e.X)
	case *ast.StarExpr:
		return w.classOf(e.X)
	}
	return lockClass{}, false
}

func isMutex(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	s := t.String()
	return s == "sync.Mutex" || s == "sync.RWMutex"
}

func derefNamed(t types.Type) (*types.Named, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil, false
	}
	return named, true
}

// blockingStdlib classifies calls into non-module code that can block:
// network I/O, (de)serialization onto connections, WaitGroup waits, and
// time.Sleep. sync.Cond.Wait is exempt by design — it releases the
// mutex while waiting; that is the point of a condition variable.
func blockingStdlib(full string) (string, bool) {
	switch full {
	case "(*sync.WaitGroup).Wait":
		return "sync.WaitGroup.Wait", true
	case "time.Sleep":
		return "time.Sleep", true
	case "net.Dial", "net.DialTimeout", "net.DialUDP", "net.DialTCP", "net.DialUnix", "net.DialIP":
		return "network dial (" + full + ")", true
	case "(*encoding/json.Encoder).Encode":
		return "stream encode ((*json.Encoder).Encode)", true
	case "(*encoding/json.Decoder).Decode":
		return "stream decode ((*json.Decoder).Decode)", true
	}
	// Read/Write/Accept on net and bufio types.
	for _, prefix := range []string{"(net.", "(*net.", "(bufio.", "(*bufio."} {
		if strings.HasPrefix(full, prefix) {
			name := full[strings.LastIndexByte(full, '.')+1:]
			switch name {
			case "Read", "Write", "Accept", "ReadFrom", "WriteTo", "Flush",
				"ReadString", "ReadBytes", "ReadLine", "ReadRune", "ReadByte", "WriteString":
				return "network/stream I/O (" + full + ")", true
			}
		}
	}
	return "", false
}

// call records one resolved call site (direct, concrete method, or CHA-
// resolved interface dispatch), plus blocking stdlib leaves.
func (w *sumWalker) call(call *ast.CallExpr, held []heldLock) {
	info := w.pkg.Info
	var obj *types.Func
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		obj, _ = info.Uses[fun.Sel].(*types.Func)
	}
	if obj == nil {
		return // func value, method value, builtin, conversion: untracked
	}
	full := obj.FullName()
	if desc, ok := blockingStdlib(full); ok {
		w.block(held, call.Pos(), desc)
		return
	}

	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return
	}
	if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
		// Interface dispatch. Resolve via CHA; remember the interface
		// for the blockinglocked unknown-implementor report, but only
		// for module-defined interfaces — stdlib interfaces (error,
		// fmt.Stringer) are ubiquitous and their implementations small.
		ifaceName := "interface"
		module := true
		rt := recv.Type()
		if named, ok := rt.(*types.Named); ok {
			ifaceName = named.Obj().Name()
			pkg := named.Obj().Pkg()
			module = pkg != nil && w.inModule(pkg)
		}
		iface, ok := rt.Underlying().(*types.Interface)
		if !ok {
			return
		}
		targets := w.prog.implementers(iface, obj.Name())
		cs := callSite{
			held:    taken(held),
			targets: targets,
			desc:    ifaceName + "." + obj.Name(),
			pos:     call.Pos(),
		}
		if module {
			cs.iface = ifaceName + "." + obj.Name()
		}
		w.out.calls = append(w.out.calls, cs)
		return
	}
	n := w.prog.nodeOf(obj)
	if n == nil {
		return // non-module concrete function with no body here
	}
	w.out.calls = append(w.out.calls, callSite{
		held:    taken(held),
		targets: []*FuncNode{n},
		desc:    n.Name(),
		pos:     call.Pos(),
	})
}

// inModule reports whether pkg is one of the loaded module packages.
func (w *sumWalker) inModule(pkg *types.Package) bool {
	for _, p := range w.prog.Pkgs {
		if p.Types == pkg {
			return true
		}
	}
	return false
}

// --- transitive queries ----------------------------------------------

// chainStep is one hop in a witness chain.
type chainStep struct {
	fn  string
	pos token.Position
}

func (prog *Program) chainString(chain []chainStep) string {
	parts := make([]string, len(chain))
	for i, st := range chain {
		parts[i] = fmt.Sprintf("%s (%s:%d)", st.fn, shortFile(st.pos.Filename), st.pos.Line)
	}
	return strings.Join(parts, " → ")
}

// lockWitness is a transitively acquired lock plus the call chain that
// reaches its acquisition.
type lockWitness struct {
	class lockClass
	chain []chainStep // ending at the Lock() site
}

// transLocks returns every lock class acquired by s or its resolved
// callees, with a witness chain. Cycles in the call graph are cut by the
// in-progress marker (the recursive contribution is the already-found
// prefix — sufficient for a heuristic reporter).
func (prog *Program) transLocks(s *summary) map[string]*lockWitness {
	if out, ok := prog.lockMemo[s]; ok {
		return out
	}
	out := make(map[string]*lockWitness)
	prog.lockMemo[s] = out // in-progress marker cuts call cycles
	for _, acq := range s.acquires {
		if _, ok := out[acq.class.Key]; !ok {
			out[acq.class.Key] = &lockWitness{
				class: acq.class,
				chain: []chainStep{{fn: s.name + " acquires " + acq.class.Disp, pos: prog.Fset.Position(acq.pos)}},
			}
		}
	}
	for _, cs := range s.calls {
		for _, t := range cs.targets {
			for key, w := range prog.transLocks(prog.Summary(t)) {
				if _, ok := out[key]; ok {
					continue
				}
				chain := append([]chainStep{{fn: s.name + " calls " + cs.desc, pos: prog.Fset.Position(cs.pos)}}, w.chain...)
				out[key] = &lockWitness{class: w.class, chain: chain}
			}
		}
	}
	return out
}

// blockWitness is a transitively reachable blocking operation.
type blockWitness struct {
	desc  string
	chain []chainStep
}

// transBlocking returns one blocking operation reachable from s (itself
// or via resolved callees), or nil.
func (prog *Program) transBlocking(s *summary) *blockWitness {
	if w, ok := prog.blockMemo[s]; ok {
		return w
	}
	prog.blockMemo[s] = nil // in-progress marker
	var found *blockWitness
	if len(s.blocks) > 0 {
		b := s.blocks[0]
		found = &blockWitness{
			desc:  b.desc,
			chain: []chainStep{{fn: s.name + ": " + b.desc, pos: prog.Fset.Position(b.pos)}},
		}
	}
	if found == nil {
		for _, cs := range s.calls {
			// Dynamic dispatch to a module interface counts as a blocking
			// frontier: the callee set is open-ended, so a caller holding
			// a lock cannot bound the critical section.
			if cs.iface != "" {
				found = &blockWitness{
					desc:  "open-ended interface call " + cs.iface,
					chain: []chainStep{{fn: s.name + " calls interface method " + cs.iface, pos: prog.Fset.Position(cs.pos)}},
				}
				break
			}
			for _, t := range cs.targets {
				if w := prog.transBlocking(prog.Summary(t)); w != nil {
					found = &blockWitness{
						desc:  w.desc,
						chain: append([]chainStep{{fn: s.name + " calls " + cs.desc, pos: prog.Fset.Position(cs.pos)}}, w.chain...),
					}
					break
				}
			}
			if found != nil {
				break
			}
		}
	}
	prog.blockMemo[s] = found
	return found
}
