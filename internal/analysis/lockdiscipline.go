package analysis

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// LockDiscipline is a heuristic lockset check for mutex-guarded structs
// (the coordinator, pool, and group in internal/runtime). For every
// struct with a field named mu/mtx/lock of type sync.Mutex or
// sync.RWMutex it infers the guarded field set — fields written through
// the receiver while the mutex is held somewhere in the method set —
// and then flags any method that touches a guarded field on a path
// where the lockset says the mutex is not held. It reads the receiver-
// field accesses the call-graph summaries record, each with the lockset
// held there; "held" means that lockset has the mutex's class.
//
// Conventions of the summary walk (callgraph.go):
//   - methods whose name ends in "Locked"/"locked" are assumed to be
//     called with the mutex held (they are walked holding it and never
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

// guard is the mutex that guards a method's receiver.
type guard struct {
	typ    *types.TypeName // the receiver's struct type
	mutex  string          // the mutex field
	class  lockClass       // its lock class, <pkg>.<Type>.<mutex>
	fields map[string]bool // the struct's other named fields
}

// guardOf returns the guard of fn's receiver: fn must be a pointer-
// receiver method (a value receiver copies the mutex, which go vet
// flags) of a struct with a field named mu, mtx or lock of type
// sync.Mutex or sync.RWMutex — the last such field, if several.
func guardOf(fn *types.Func) (guard, bool) {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return guard{}, false
	}
	ptr, ok := recv.Type().(*types.Pointer)
	if !ok {
		return guard{}, false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return guard{}, false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return guard{}, false
	}
	g := guard{typ: named.Obj(), fields: make(map[string]bool)}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Embedded() {
			continue
		}
		g.fields[f.Name()] = true
		if t := f.Type().String(); mutexFieldNames[f.Name()] && (t == "sync.Mutex" || t == "sync.RWMutex") {
			g.mutex = f.Name()
		}
	}
	if g.mutex == "" {
		return guard{}, false
	}
	delete(g.fields, g.mutex)
	pkg := g.typ.Pkg()
	g.class = lockClass{
		Key:  pkg.Path() + "." + g.typ.Name() + "." + g.mutex,
		Disp: pkg.Name() + "." + g.typ.Name() + "." + g.mutex,
	}
	return g, true
}

// assumedHeld reports whether the method is, by naming convention,
// called with the lock already held.
func assumedHeld(fd *ast.FuncDecl) bool {
	n := fd.Name.Name
	return strings.HasSuffix(n, "Locked") || strings.HasSuffix(n, "locked")
}

func runLockDiscipline(pass *Pass) {
	asked := make(map[*Package]bool, len(pass.Pkgs))
	for _, pkg := range pass.Pkgs {
		asked[pkg] = true
	}
	type access struct {
		fieldAccess
		held bool
	}
	type guarded struct {
		guard
		accesses []access
		written  map[string]bool // fields written with the mutex held
	}
	byType := make(map[*types.TypeName]*guarded)
	for _, n := range pass.Prog.Funcs() {
		if !asked[n.Pkg] {
			continue
		}
		g, ok := guardOf(n.Obj)
		if !ok {
			continue
		}
		gs := byType[g.typ]
		if gs == nil {
			gs = &guarded{guard: g, written: make(map[string]bool)}
			byType[g.typ] = gs
		}
		s := pass.Prog.Summary(n)
		for _, sum := range append([]*summary{s}, s.literals...) {
			for _, a := range sum.fields {
				if !g.fields[a.field] {
					continue
				}
				held := slices.ContainsFunc(a.held, func(h heldLock) bool { return h.class.Key == g.class.Key })
				if held && a.write {
					gs.written[a.field] = true
				}
				gs.accesses = append(gs.accesses, access{a, held})
			}
		}
	}
	for _, gs := range byType { // Run sorts the findings
		for _, a := range gs.accesses {
			if a.held || !gs.written[a.field] {
				continue
			}
			verb := "read"
			if a.write {
				verb = "write to"
			}
			name := gs.typ.Name()
			pass.Reportf(a.pos, "%s %s.%s without holding %s.%s (field is mutex-guarded elsewhere); lock, rename the method with a Locked suffix, or annotate",
				verb, name, a.field, name, gs.mutex)
		}
	}
}
