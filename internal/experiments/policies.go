package experiments

import (
	"procctl/internal/kernel"
	"procctl/internal/sim"
	"procctl/internal/threads"
	"procctl/internal/trace"
)

// PolicyRow is one scheduling discipline's outcome on the Figure 4 mix.
type PolicyRow struct {
	Name     string
	Control  bool           // process control active (only with timeshare)
	Elapsed  []sim.Duration // per mix application, averaged over seeds
	Makespan sim.Duration   // start of first app to finish of last (first seed)
	SpinFrac float64        // spin time / total CPU time (first seed)
	Switches int64          // context switches across CPUs (first seed)
}

// PolicyResult compares the related-work scheduling policies of the
// paper's Section 3 (plus the Section 7 partition proposal) against the
// paper's process-control approach, on the same multiprogrammed mix.
type PolicyResult struct {
	Mix  []Fig4Arrival
	Rows []PolicyRow
}

// NamedPolicies returns the policy constructors compared by
// PolicyComparison, keyed in presentation order.
func NamedPolicies() (names []string, factories map[string]func() kernel.Policy) {
	factories = map[string]func() kernel.Policy{
		"timeshare": func() kernel.Policy { return kernel.NewTimeshare() },
		"cosched":   func() kernel.Policy { return kernel.NewCosched() },
		"spinflag":  func() kernel.Policy { return kernel.NewSpinFlag() },
		"affinity":  func() kernel.Policy { return kernel.NewAffinity() },
		"partition": func() kernel.Policy { return kernel.NewPartition() },
	}
	names = []string{"timeshare", "cosched", "spinflag", "affinity", "partition"}
	return names, factories
}

// PolicyComparison runs the Figure 4 mix under every scheduling policy
// with the unmodified threads package, and once more under timeshare
// with process control — quantifying the paper's qualitative claims
// about coscheduling, spin-flagging, affinity, and partitioning.
func PolicyComparison(o Options, mix []Fig4Arrival) *PolicyResult {
	o = o.withDefaults()
	if len(mix) == 0 {
		mix = DefaultFig4Mix()
	}
	res := &PolicyResult{Mix: mix}
	mixRun := simRun{o: o, apps: mixLaunches(mix), staggered: true}
	names, factories := NamedPolicies()
	var runs []simRun
	for _, name := range names {
		r := mixRun
		r.o.NewPolicy = factories[name]
		runs = append(runs, perSeed(r)...)
		res.Rows = append(res.Rows, PolicyRow{Name: name})
	}
	mixRun.control = true
	runs = append(runs, perSeed(mixRun)...)
	res.Rows = append(res.Rows, PolicyRow{Name: "timeshare", Control: true})

	for i := range res.Rows {
		row := &res.Rows[i]
		// The first seed's run also reads the kernel's spin, CPU and
		// switch counters.
		runs[i*o.Seeds].read = func(s *Sim, _ []*threads.App) {
			snap := s.K.MetricsSnapshot()
			spin := snap.Get(kernel.MetricSpinMicros).Value
			cpu := snap.Get(kernel.MetricCPUMicros).Value
			row.Switches = snap.Get(kernel.MetricCtxSwitches).Value
			if cpu > 0 {
				row.SpinFrac = float64(spin) / float64(cpu)
			}
		}
	}
	outs := fanOut(runs, simRun.procs, runSim)
	for i := range res.Rows {
		row, seeds := &res.Rows[i], outs[i*o.Seeds:][:o.Seeds]
		row.Elapsed = meanElapsed(seeds)
		for a, arr := range mix {
			row.Makespan = max(row.Makespan, sim.Duration(arr.At.Add(seeds[0].elapsed[a])))
		}
	}
	return res
}

// Row returns the named row (control distinguishes the two timeshare
// entries), or nil.
func (r *PolicyResult) Row(name string, control bool) *PolicyRow {
	for i := range r.Rows {
		if r.Rows[i].Name == name && r.Rows[i].Control == control {
			return &r.Rows[i]
		}
	}
	return nil
}

// Render prints the comparison table.
func (r *PolicyResult) Render() string {
	header := []string{"policy", "control"}
	for _, arr := range r.Mix {
		header = append(header, arr.App)
	}
	header = append(header, "makespan", "spin%", "switches")
	t := trace.NewTable("Policy comparison on the Figure 4 mix (wall-clock per app)", header...)
	for _, row := range r.Rows {
		cells := []interface{}{row.Name, row.Control}
		for _, e := range row.Elapsed {
			cells = append(cells, e)
		}
		cells = append(cells, row.Makespan, 100*row.SpinFrac, row.Switches)
		t.Row(cells...)
	}
	return t.String()
}
