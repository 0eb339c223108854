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
	wls := mixWorkloads(mix)
	names, factories := NamedPolicies()
	for _, name := range names {
		oo := o
		oo.NewPolicy = factories[name]
		res.Rows = append(res.Rows, runPolicyMix(oo, mix, wls, name, false))
	}
	res.Rows = append(res.Rows, runPolicyMix(o, mix, wls, "timeshare", true))
	return res
}

// runPolicyMix executes the mix (wls: its prebuilt workloads) under one
// policy setting.
func runPolicyMix(o Options, mix []Fig4Arrival, wls []*threads.Workload, name string, control bool) PolicyRow {
	row := PolicyRow{Name: name, Control: control, Elapsed: make([]sim.Duration, len(mix))}
	type out struct {
		elapsed  []sim.Duration
		makespan sim.Duration
		spinFrac float64
		switches int64
	}
	outs := make([]out, o.Seeds)
	parallelFor(o.Seeds, func(si int) {
		oo := o
		oo.Seed = o.Seed + uint64(si)
		s := NewSim(oo, control)
		slots := make([]**threads.App, len(mix))
		for i, arr := range mix {
			slots[i] = s.LaunchAt(arr.At, kernel.AppID(i+1), wls[i], arr.Procs)
		}
		ok := s.RunUntil(func() bool {
			for _, sl := range slots {
				if *sl == nil || !(*sl).Done() {
					return false
				}
			}
			return true
		})
		s.mustFinish(ok, "policy mix under "+name)

		var e []sim.Duration
		var last sim.Time
		for i := range mix {
			el := (*slots[i]).Elapsed()
			e = append(e, el)
			if f := mix[i].At.Add(el); f > last {
				last = f
			}
		}
		// The metrics registry replaced the hand-rolled tallies that used
		// to walk Processes() and CPUs() here; the counters are maintained
		// next to the same ProcStats/machine accounting (cross-checked by
		// TestMetricsAgreeWithProcStats).
		spin, _ := s.K.Metrics().Value(kernel.MetricSpinMicros)
		cpu, _ := s.K.Metrics().Value(kernel.MetricCPUMicros)
		switches, _ := s.K.Metrics().Value(kernel.MetricCtxSwitches)
		frac := 0.0
		if cpu > 0 {
			frac = float64(spin) / float64(cpu)
		}
		outs[si] = out{elapsed: e, makespan: sim.Duration(last), spinFrac: frac, switches: switches}
	})
	sums := make([]sim.Duration, len(mix))
	for _, ot := range outs {
		for i := range mix {
			sums[i] += ot.elapsed[i]
		}
	}
	for i := range mix {
		row.Elapsed[i] = sums[i] / sim.Duration(o.Seeds)
	}
	row.Makespan = outs[0].makespan
	row.SpinFrac = outs[0].spinFrac
	row.Switches = outs[0].switches
	return row
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
