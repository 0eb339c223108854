package analysis

// lockorder: interprocedural lock-order cycle detection over the
// real-concurrency packages. Every "acquires B while holding A" pair —
// whether both acquisitions are in one function or B is taken deep
// inside a callee — becomes a directed edge A→B in a global lock graph;
// a cycle means two goroutines can take the same locks in opposite
// orders and deadlock. The diagnostic shows both acquisition paths.

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// lockOrderScope lists the module-relative prefixes whose functions
// root the lock graph: the packages with real concurrency. Sim-side
// packages are single-threaded per run and excluded.
var lockOrderScope = []string{
	"internal/runtime",
	"internal/ctrl",
	"internal/metrics",
}

func inLockScope(importPath string) bool { return underAny(importPath, lockOrderScope) }

// LockOrder reports potential deadlocks: cycles in the "acquires B
// while holding A" graph.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "Builds a whole-program lock-order graph over every sync.Mutex/RWMutex " +
		"in the real-concurrency packages (internal/runtime, internal/ctrl, " +
		"internal/metrics). An edge A→B is recorded whenever lock B is acquired " +
		"— directly or anywhere down the call graph — while A is held. Any cycle " +
		"is reported as a potential deadlock, with the acquisition path for each " +
		"edge on the cycle. Locks are classified per (type, field), so all " +
		"instances of a struct share a class; calls through function values are " +
		"not tracked (see DESIGN.md for soundness limits).",
	Pragma: "lockorder",
	Run:    runLockOrder,
}

// orderEdge is one A→B observation with its witness chain.
type orderEdge struct {
	from, to string // lock class keys
	fromDisp string
	toDisp   string
	pos      token.Pos   // where to report (the later acquisition, or the call site)
	chain    []chainStep // path from the holder to the inner Lock()
}

func runLockOrder(pass *Pass) {
	prog := pass.Prog
	edges := make(map[string]orderEdge) // "from→to" -> first witness

	record := func(e orderEdge) {
		key := e.from + "→" + e.to
		if _, ok := edges[key]; !ok {
			edges[key] = e
		}
	}

	for _, root := range prog.Funcs() {
		if !inLockScope(root.Pkg.Path) {
			continue
		}
		sums := append([]*summary{prog.Summary(root)}, prog.Summary(root).literals...)
		for _, s := range sums {
			// Local edges: both acquisitions inside this function.
			for _, le := range s.edges {
				if le.from.Key == le.to.Key {
					continue // recursive re-lock is self-deadlock, reported below
				}
				record(orderEdge{
					from: le.from.Key, to: le.to.Key,
					fromDisp: le.from.Disp, toDisp: le.to.Disp,
					pos: le.toPos,
					chain: []chainStep{
						{fn: s.name + " holds " + le.from.Disp, pos: prog.Fset.Position(le.fromPos)},
						{fn: s.name + " acquires " + le.to.Disp, pos: prog.Fset.Position(le.toPos)},
					},
				})
			}
			// Interprocedural edges: a call made while holding locks, where
			// the callee (transitively) acquires more locks.
			for _, cs := range s.calls {
				if len(cs.held) == 0 {
					continue
				}
				for _, t := range cs.targets {
					for _, w := range sortedLockWitnesses(prog.transLocks(prog.Summary(t))) {
						for _, h := range cs.held {
							if h.class.Key == w.class.Key {
								continue
							}
							chain := append([]chainStep{
								{fn: s.name + " holds " + h.class.Disp, pos: prog.Fset.Position(h.pos)},
								{fn: s.name + " calls " + cs.desc, pos: prog.Fset.Position(cs.pos)},
							}, w.chain...)
							record(orderEdge{
								from: h.class.Key, to: w.class.Key,
								fromDisp: h.class.Disp, toDisp: w.class.Disp,
								pos:   cs.pos,
								chain: chain,
							})
						}
					}
				}
			}
			// Self-deadlock: re-acquiring a held lock (directly or via a
			// callee). sync.Mutex is not reentrant.
			for _, le := range s.edges {
				if le.from.Key == le.to.Key && !le.from.Read {
					pass.Reportf(le.toPos, "acquires %s while already holding it (sync mutexes are not reentrant): %s",
						le.to.Disp, prog.chainString([]chainStep{
							{fn: s.name + " holds " + le.from.Disp, pos: prog.Fset.Position(le.fromPos)},
							{fn: s.name + " re-locks " + le.to.Disp, pos: prog.Fset.Position(le.toPos)},
						}))
				}
			}
			for _, cs := range s.calls {
				for _, t := range cs.targets {
					tl := prog.transLocks(prog.Summary(t))
					for _, h := range cs.held {
						if w, ok := tl[h.class.Key]; ok && !h.class.Read && !w.class.Read {
							chain := append([]chainStep{
								{fn: s.name + " holds " + h.class.Disp, pos: prog.Fset.Position(h.pos)},
								{fn: s.name + " calls " + cs.desc, pos: prog.Fset.Position(cs.pos)},
							}, w.chain...)
							pass.Reportf(cs.pos, "call re-acquires %s already held by the caller (self-deadlock): %s",
								h.class.Disp, prog.chainString(chain))
						}
					}
				}
			}
		}
	}

	// Cycle detection over the collected edges. For each ordered pair
	// (A,B) with both A→B and a B→…→A path, report once (on the
	// lexically smaller key so each cycle is reported one time).
	adj := make(map[string][]string)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	for _, outs := range adj {
		sort.Strings(outs)
	}
	var keys []string
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	reported := make(map[string]bool)
	for _, k := range keys {
		e := edges[k]
		path := findPath(adj, e.to, e.from)
		if path == nil {
			continue
		}
		// Cycle nodes: from, to, then the return path minus its final
		// element (which is from again).
		cycleID := canonicalCycle(append([]string{e.from, e.to}, path[:len(path)-1]...))
		if reported[cycleID] {
			continue
		}
		reported[cycleID] = true
		var b strings.Builder
		fmt.Fprintf(&b, "lock-order cycle: %s → %s → back to %s (potential deadlock)", e.fromDisp, e.toDisp, e.fromDisp)
		fmt.Fprintf(&b, "; path 1: %s", prog.chainString(e.chain))
		// Reconstruct the return path edge by edge for the diagnostic.
		pathNo := 2
		prev := e.to
		for _, next := range path {
			if re, ok := edges[prev+"→"+next]; ok {
				fmt.Fprintf(&b, "; path %d: %s", pathNo, prog.chainString(re.chain))
				pathNo++
			}
			prev = next
		}
		pass.Reportf(e.pos, "%s", b.String())
	}
}

// findPath returns the node sequence (excluding from, ending at to) of
// a shortest path from→…→to in adj, or nil.
func findPath(adj map[string][]string, from, to string) []string {
	type qe struct {
		node string
		path []string
	}
	seen := map[string]bool{from: true}
	queue := []qe{{node: from}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range adj[cur.node] {
			if seen[next] {
				continue
			}
			path := append(append([]string(nil), cur.path...), next)
			if next == to {
				return path
			}
			seen[next] = true
			queue = append(queue, qe{node: next, path: path})
		}
	}
	return nil
}

// canonicalCycle produces a rotation-invariant identity for a cycle's
// node sequence.
func canonicalCycle(nodes []string) string {
	if len(nodes) == 0 {
		return ""
	}
	min := 0
	for i := range nodes {
		if nodes[i] < nodes[min] {
			min = i
		}
	}
	rotated := append(append([]string(nil), nodes[min:]...), nodes[:min]...)
	return strings.Join(rotated, "→")
}

// sortedLockWitnesses orders a transLocks result deterministically.
func sortedLockWitnesses(m map[string]*lockWitness) []*lockWitness {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*lockWitness, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}
