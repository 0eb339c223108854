package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockDiscipline is a heuristic lockset check for mutex-guarded structs
// (the coordinator, pool, and group in internal/runtime). For every
// struct with a field named mu/mtx/lock of type sync.Mutex or
// sync.RWMutex it infers the guarded field set — fields written through
// the receiver while the mutex is held somewhere in the method set —
// and then flags any method that touches a guarded field on a path
// where the lockset walk says the mutex is not held.
//
// Conventions understood by the walker:
//   - methods whose name ends in "Locked"/"locked" are assumed to be
//     called with the mutex held (they are walked held=true and never
//     flagged themselves);
//   - defer mu.Unlock() keeps the lock held to the end of the method;
//   - a func literal inherits the lockset at its definition point,
//     except `go func` literals, which start unlocked;
//   - branches are walked with a copy of the lockset (an unlock inside
//     an early-return branch does not leak to the fallthrough path).
//
// It is a heuristic, not a proof — the -race stress tests under
// internal/runtime provide the dynamic complement. Suppress intentional
// unlocked access (immutable-after-construction fields the inference
// missed, atomics) with //procctl:allow-unlocked <reason>.
var LockDiscipline = &Analyzer{
	Name:   "lockdiscipline",
	Pragma: "unlocked",
	Doc: "for structs with a mu sync.Mutex field, flag methods reading or writing guarded sibling " +
		"fields without holding mu; *Locked-suffixed methods are assumed called under the lock",
	Run: runLockDiscipline,
}

var mutexFieldNames = map[string]bool{"mu": true, "mtx": true, "lock": true}

// guardedStruct is one struct under analysis.
type guardedStruct struct {
	name       string
	mutexField string
	fields     map[string]bool // all field names, for access filtering
	methods    []*ast.FuncDecl // pointer-receiver methods
}

// fieldAccess is one receiver-field touch observed during the walk.
type fieldAccess struct {
	field  string
	pos    token.Pos
	held   bool
	write  bool
	method *ast.FuncDecl
}

func runLockDiscipline(pass *Pass) {
	structs := findGuardedStructs(pass)
	if len(structs) == 0 {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 || fd.Body == nil {
				continue
			}
			name := recvTypeName(fd.Recv.List[0].Type)
			if gs, ok := structs[name]; ok {
				gs.methods = append(gs.methods, fd)
			}
		}
	}
	for _, gs := range structs {
		analyzeStruct(pass, gs)
	}
}

// findGuardedStructs locates package structs with a named mutex field.
func findGuardedStructs(pass *Pass) map[string]*guardedStruct {
	out := make(map[string]*guardedStruct)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				gs := &guardedStruct{name: ts.Name.Name, fields: make(map[string]bool)}
				for _, f := range st.Fields.List {
					for _, fname := range f.Names {
						gs.fields[fname.Name] = true
						if mutexFieldNames[fname.Name] && isMutexType(pass, f.Type) {
							gs.mutexField = fname.Name
						}
					}
				}
				if gs.mutexField != "" {
					out[gs.name] = gs
				}
			}
		}
	}
	return out
}

func isMutexType(pass *Pass, expr ast.Expr) bool {
	t := pass.Info.TypeOf(expr)
	if t == nil {
		return false
	}
	s := t.String()
	return s == "sync.Mutex" || s == "sync.RWMutex"
}

// recvTypeName returns the base type name of a method receiver.
func recvTypeName(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(e.X)
	}
	return ""
}

func analyzeStruct(pass *Pass, gs *guardedStruct) {
	var accesses []fieldAccess
	for _, m := range gs.methods {
		if _, isPtr := m.Recv.List[0].Type.(*ast.StarExpr); !isPtr {
			continue // value receiver: go vet flags the mutex copy
		}
		if len(m.Recv.List[0].Names) == 0 {
			continue
		}
		recvIdent := m.Recv.List[0].Names[0]
		recvObj := pass.Info.Defs[recvIdent]
		if recvObj == nil {
			continue
		}
		w := &locksetWalker{
			pass:   pass,
			gs:     gs,
			recv:   recvObj,
			method: m,
			out:    &accesses,
		}
		w.walkStmts(m.Body.List, assumedHeld(m))
	}

	guarded := make(map[string]bool)
	for _, a := range accesses {
		if a.write && a.held {
			guarded[a.field] = true
		}
	}
	for _, a := range accesses {
		if a.held || !guarded[a.field] {
			continue
		}
		verb := "read"
		if a.write {
			verb = "write to"
		}
		pass.Reportf(a.pos, "%s %s.%s without holding %s.%s (field is mutex-guarded elsewhere); lock, rename the method with a Locked suffix, or annotate",
			verb, gs.name, a.field, gs.name, gs.mutexField)
	}
}

// assumedHeld reports whether the method is, by naming convention,
// called with the lock already held.
func assumedHeld(fd *ast.FuncDecl) bool {
	n := fd.Name.Name
	return strings.HasSuffix(n, "Locked") || strings.HasSuffix(n, "locked")
}

// locksetWalker tracks whether the receiver's mutex is held along a
// linear walk of a method body.
type locksetWalker struct {
	pass   *Pass
	gs     *guardedStruct
	recv   types.Object
	method *ast.FuncDecl
	out    *[]fieldAccess
}

// walkStmts walks a statement sequence, threading the held flag through
// lock/unlock calls, and returns the final state.
func (w *locksetWalker) walkStmts(stmts []ast.Stmt, held bool) bool {
	for _, s := range stmts {
		held = w.walkStmt(s, held)
	}
	return held
}

func (w *locksetWalker) walkStmt(s ast.Stmt, held bool) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if op, ok := w.mutexOp(s.X); ok {
			return op
		}
		w.scanExpr(s.X, held, false)
	case *ast.DeferStmt:
		if _, ok := w.mutexOp(s.Call); ok {
			return held // defer mu.Unlock() releases at return, not here
		}
		w.scanExpr(s.Call, held, false)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.scanExpr(e, held, false)
		}
		for _, e := range s.Lhs {
			w.scanLHS(e, held)
		}
	case *ast.IncDecStmt:
		w.scanLHS(s.X, held)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scanExpr(e, held, false)
		}
	case *ast.SendStmt:
		w.scanExpr(s.Chan, held, false)
		w.scanExpr(s.Value, held, false)
	case *ast.GoStmt:
		w.scanExpr(s.Call, held, true)
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		w.scanExpr(s.Cond, held, false)
		w.walkStmts(s.Body.List, held)
		if s.Else != nil {
			w.walkStmt(s.Else, held)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond, held, false)
		}
		inner := w.walkStmts(s.Body.List, held)
		if s.Post != nil {
			w.walkStmt(s.Post, inner)
		}
	case *ast.RangeStmt:
		w.scanExpr(s.X, held, false)
		w.walkStmts(s.Body.List, held)
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag, held, false)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.scanExpr(e, held, false)
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
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					w.walkStmt(cc.Comm, held)
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

// mutexOp recognizes recv.mu.Lock()/RLock() (→ true) and
// recv.mu.Unlock()/RUnlock() (→ false) calls.
func (w *locksetWalker) mutexOp(e ast.Expr) (heldAfter, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return false, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return false, false
	}
	inner, isSel := sel.X.(*ast.SelectorExpr)
	if !isSel || inner.Sel.Name != w.gs.mutexField || !w.isRecv(inner.X) {
		return false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return true, true
	case "Unlock", "RUnlock":
		return false, true
	}
	return false, false
}

func (w *locksetWalker) isRecv(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	return w.pass.Info.Uses[id] == w.recv
}

// scanLHS records a write access for the base receiver field of an
// assignment target (s.f = x, s.f[k] = x, s.f.g++ all touch field f)
// and read accesses for any index expressions within it.
func (w *locksetWalker) scanLHS(e ast.Expr, held bool) {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if w.isRecv(e.X) {
			w.record(e.Sel.Name, e.Pos(), held, true)
			return
		}
		w.scanLHS(e.X, held)
	case *ast.IndexExpr:
		w.scanExpr(e.Index, held, false)
		w.scanLHS(e.X, held)
	case *ast.StarExpr:
		w.scanLHS(e.X, held)
	default:
		w.scanExpr(e, held, false)
	}
}

// scanExpr records read accesses to receiver fields within e. Func
// literals inherit the current lockset, except goroutine bodies.
func (w *locksetWalker) scanExpr(e ast.Expr, held bool, inGo bool) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if w.isRecv(e.X) {
			w.record(e.Sel.Name, e.Pos(), held, false)
			return
		}
		w.scanExpr(e.X, held, inGo)
	case *ast.CallExpr:
		if lit, ok := e.Fun.(*ast.FuncLit); ok {
			start := held
			if inGo {
				start = false
			}
			w.walkStmts(lit.Body.List, start)
		} else {
			w.scanExpr(e.Fun, held, false)
		}
		for _, a := range e.Args {
			w.scanExpr(a, held, inGo)
		}
	case *ast.FuncLit:
		start := held
		if inGo {
			start = false
		}
		w.walkStmts(e.Body.List, start)
	case *ast.BinaryExpr:
		w.scanExpr(e.X, held, false)
		w.scanExpr(e.Y, held, false)
	case *ast.UnaryExpr:
		w.scanExpr(e.X, held, false)
	case *ast.StarExpr:
		w.scanExpr(e.X, held, false)
	case *ast.ParenExpr:
		w.scanExpr(e.X, held, false)
	case *ast.IndexExpr:
		w.scanExpr(e.X, held, false)
		w.scanExpr(e.Index, held, false)
	case *ast.SliceExpr:
		w.scanExpr(e.X, held, false)
		w.scanExpr(e.Low, held, false)
		w.scanExpr(e.High, held, false)
		w.scanExpr(e.Max, held, false)
	case *ast.TypeAssertExpr:
		w.scanExpr(e.X, held, false)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.scanExpr(el, held, false)
		}
	case *ast.KeyValueExpr:
		w.scanExpr(e.Value, held, false)
	}
}

// record notes an access to a receiver field, ignoring the mutex itself,
// method calls, and names that are not fields of the struct.
func (w *locksetWalker) record(field string, pos token.Pos, held, write bool) {
	if field == w.gs.mutexField || !w.gs.fields[field] {
		return
	}
	*w.out = append(*w.out, fieldAccess{field: field, pos: pos, held: held, write: write, method: w.method})
}
