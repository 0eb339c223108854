package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags `range` over a map whose body lets iteration order
// escape: appending to a slice that is never sorted afterwards, calling
// functions (which may emit events or feed scheduling decisions), or
// returning early. Go randomizes map-iteration order per run, so any of
// these leaks host nondeterminism into event order or report output.
// Order-independent bodies — counting into another map, commutative
// accumulation (sum += v, n++), delete — are allowed, as is the
// collect-keys-then-sort idiom (append inside the loop, sort.X/slices.X
// on the same slice later in the function). Suppress deliberate
// unordered iteration with //procctl:allow-maporder <reason>.
var MapOrder = &Analyzer{
	Name:   "maporder",
	Pragma: "maporder",
	Doc: "flag map-range loops whose body appends to an unsorted slice, calls functions, or returns " +
		"early, in simulation and report packages; commutative bodies and append-then-sort are allowed",
	Run: runMapOrder,
}

func runMapOrder(pass *Pass) {
	if !pass.IsSim {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if !isMapType(pass.Info, rng.X) {
					return true
				}
				for _, leak := range mapRangeLeaks(pass.Info, fd, rng) {
					pass.Reportf(leak.pos, "%s", leak.msg)
				}
				return true
			})
		}
	}
}

func isMapType(info *types.Info, x ast.Expr) bool {
	t := info.TypeOf(x)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// mapLeak is one order-dependent effect found inside a map-range body.
type mapLeak struct {
	pos token.Pos
	msg string
}

// mapRangeLeaks scans one map-range body for order-dependent effects.
func mapRangeLeaks(info *types.Info, fn *ast.FuncDecl, rng *ast.RangeStmt) []mapLeak {
	var leaks []mapLeak
	report := func(pos token.Pos, msg string) {
		leaks = append(leaks, mapLeak{pos: pos, msg: msg})
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if n != rng && isMapType(info, n.X) {
				return false // nested map range is checked on its own
			}
		case *ast.AssignStmt:
			leaks = append(leaks, mapRangeAssignLeaks(info, fn, rng, n)...)
		case *ast.SendStmt:
			report(n.Pos(), "channel send inside map iteration: receive order depends on map order")
		case *ast.ReturnStmt:
			if len(n.Results) > 0 {
				report(n.Pos(), "value return inside map iteration: the result depends on which key is visited first")
			}
		case *ast.CallExpr:
			if name, effectful := effectfulCall(info, n); effectful {
				report(n.Pos(), "call to "+name+" inside map iteration: side effects occur in nondeterministic key order (sort the keys first)")
			}
		}
		return true
	})
	return leaks
}

// mapRangeAssignLeaks handles assignment statements in a map-range body:
// appends must be sorted later; += on non-commutative types (strings,
// slices) is order-dependent.
func mapRangeAssignLeaks(info *types.Info, fn *ast.FuncDecl, rng *ast.RangeStmt, as *ast.AssignStmt) []mapLeak {
	var leaks []mapLeak
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 {
		if t := info.TypeOf(as.Lhs[0]); t != nil {
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				leaks = append(leaks, mapLeak{pos: as.Pos(), msg: "string concatenation inside map iteration: the result depends on key order"})
			}
		}
	}
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !isBuiltin(info, call, "append") || i >= len(as.Lhs) {
			continue
		}
		target := types.ExprString(as.Lhs[i])
		if !sortedAfter(info, fn, rng, target) {
			leaks = append(leaks, mapLeak{pos: as.Pos(), msg: "append to " + target + " inside map iteration without sorting afterwards: element order is nondeterministic"})
		}
	}
	return leaks
}

// effectfulCall reports whether a call inside a map range can carry the
// iteration order outward. Pure builtins, conversions, and append
// (handled separately, with the sort check) do not count.
func effectfulCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return "", false // type conversion
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if obj, ok := info.Uses[id]; ok {
			if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
				switch id.Name {
				case "len", "cap", "append", "delete", "min", "max", "make", "new", "copy":
					return "", false
				}
				return id.Name, true // panic, print, clear, ...
			}
		}
		return id.Name, true
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return types.ExprString(sel), true
	}
	return types.ExprString(call.Fun), true
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	obj, ok := info.Uses[id]
	if !ok {
		return false
	}
	_, isB := obj.(*types.Builtin)
	return isB
}

// sortedAfter reports whether, later in fn than the range loop, target
// is passed to a sort.* or slices.* call — the collect-then-sort idiom.
func sortedAfter(info *types.Info, fn *ast.FuncDecl, rng *ast.RangeStmt, target string) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkg := pkgNameOf(info, id)
		if pkg == nil || (pkg.Path() != "sort" && pkg.Path() != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if types.ExprString(arg) == target {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
