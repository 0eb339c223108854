package analysis

// blockinglocked: reports potentially blocking operations reachable
// while a mutex is held. Holding a lock across network I/O, a channel
// operation, a select, or a WaitGroup wait turns every other goroutine
// that wants the lock into a convoy — the scalability-collapse mode the
// lock-admission literature warns about, and precisely what the
// coordinator must avoid at 10k-client scale. sync.Cond.Wait is exempt
// (it releases the mutex while waiting; that is its contract), as is a
// select with a default case (non-blocking poll).

var BlockingLocked = &Analyzer{
	Name: "blockinglocked",
	Doc: "Reports potentially blocking operations — channel send/receive, " +
		"select without default, sync.WaitGroup.Wait, time.Sleep, network I/O " +
		"and stream encode/decode — reachable while a sync.Mutex/RWMutex is " +
		"held, searching through the call graph from every function in the " +
		"real-concurrency packages. Calls to module-defined interface methods " +
		"under a lock are also reported: the dynamic callee is open-ended, so " +
		"the critical section's duration is unbounded. sync.Cond.Wait (releases " +
		"the lock) and selects with a default case are exempt. Suppress " +
		"deliberate cases with //procctl:allow-blockinglocked <reason>.",
	Pragma: "blockinglocked",
	Run:    runBlockingLocked,
}

func runBlockingLocked(pass *Pass) {
	prog := pass.Prog
	for _, root := range prog.Funcs() {
		if !inLockScope(root.Pkg.Path) {
			continue
		}
		sums := append([]*summary{prog.Summary(root)}, prog.Summary(root).literals...)
		for _, s := range sums {
			// Direct blocking ops under a held lock.
			for _, b := range s.blocks {
				if len(b.held) == 0 {
					continue
				}
				pass.Reportf(b.pos, "%s while holding %s — blocks every goroutine contending for the lock",
					b.desc, b.held[len(b.held)-1].class.Disp)
			}
			// Calls made under a lock whose callees (transitively) block,
			// and dynamic dispatch to module interfaces under a lock.
			for _, cs := range s.calls {
				if len(cs.held) == 0 {
					continue
				}
				holding := cs.held[len(cs.held)-1].class.Disp
				if cs.iface != "" {
					pass.Reportf(cs.pos, "call to interface method %s while holding %s — dynamic callee is open-ended, critical section unbounded",
						cs.iface, holding)
					continue
				}
				for _, t := range cs.targets {
					if w := prog.transBlocking(prog.Summary(t)); w != nil {
						chain := append([]chainStep{
							{fn: s.name + " calls " + cs.desc, pos: prog.Fset.Position(cs.pos)},
						}, w.chain...)
						pass.Reportf(cs.pos, "%s reachable while holding %s: %s",
							w.desc, holding, prog.chainString(chain))
						break
					}
				}
			}
		}
	}
}
