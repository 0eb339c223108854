package threads_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"procctl/internal/ctrl"
	"procctl/internal/kernel"
	"procctl/internal/machine"
	"procctl/internal/sim"
	"procctl/internal/threads"
)

// randomWorkload builds a layered random DAG from raw bytes: a handful
// of layers, random tasks per layer, random cross-layer edges, random
// work and critical sections. Every generated workload is valid by
// construction (edges only go forward).
func randomWorkload(seed uint64, maxTasks int) *threads.Workload {
	rng := sim.NewRNG(seed)
	w := threads.NewWorkload(fmt.Sprintf("rand-%d", seed))
	layers := 1 + rng.Intn(5)
	var prev []threads.TaskID
	total := 0
	for l := 0; l < layers && total < maxTasks; l++ {
		n := 1 + rng.Intn(8)
		cur := make([]threads.TaskID, 0, n)
		for i := 0; i < n && total < maxTasks; i++ {
			work := rng.Duration(100*sim.Microsecond, 5*sim.Millisecond)
			var id threads.TaskID
			if rng.Intn(4) == 0 {
				cs := work / sim.Duration(2+rng.Intn(6))
				id = w.AddLocked(fmt.Sprintf("t%d.%d", l, i), work, threads.LockID(rng.Intn(2)), cs)
			} else {
				id = w.Add(fmt.Sprintf("t%d.%d", l, i), work)
			}
			// Random edges from the previous layer.
			for _, p := range prev {
				if rng.Intn(3) == 0 {
					w.Dep(p, id)
				}
			}
			cur = append(cur, id)
			total++
		}
		prev = cur
	}
	return w
}

// TestStressAllPoliciesCompleteRandomDAGs is the cross-cutting safety
// property: any valid workload, under any scheduling policy, with or
// without process control, completes with every task executed exactly
// once — no lost wakeups, no lost tasks, no deadlock.
func TestStressAllPoliciesCompleteRandomDAGs(t *testing.T) {
	policies := map[string]func() kernel.Policy{
		"timeshare": func() kernel.Policy { return kernel.NewTimeshare() },
		"cosched":   func() kernel.Policy { return kernel.NewCosched() },
		"spinflag":  func() kernel.Policy { return kernel.NewSpinFlag() },
		"affinity":  func() kernel.Policy { return kernel.NewAffinity() },
		"partition": func() kernel.Policy { return kernel.NewPartition() },
	}
	check := func(seed uint64, polName string, control bool, procs int) error {
		wl := randomWorkload(seed, 24)
		if err := wl.Validate(); err != nil {
			return fmt.Errorf("generator produced invalid workload: %v", err)
		}
		eng := sim.NewEngine(seed)
		mac := machine.New(machine.Config{NumCPU: 4, ContextSwitch: 50, CacheSize: 64 << 10, ReloadRate: 64})
		k := kernel.New(eng, mac, policies[polName](), kernel.Config{Quantum: 10 * sim.Millisecond})
		seen := make(map[threads.TaskID]int)
		cfg := threads.Config{
			Procs:        procs,
			PollInterval: 50 * sim.Millisecond,
			OnTaskDone:   func(id threads.TaskID) { seen[id]++ },
		}
		if control {
			cfg.Controller = ctrl.NewServer(k, 20*sim.Millisecond)
		}
		a := threads.Launch(k, 1, wl, cfg)
		horizon := sim.Time(120 * sim.Second)
		for !a.Done() && eng.Now() < horizon {
			eng.Run(eng.Now().Add(sim.Second))
		}
		if !a.Done() {
			return fmt.Errorf("policy %s control=%v procs=%d seed=%d: did not finish", polName, control, procs, seed)
		}
		if len(seen) != wl.Len() {
			return fmt.Errorf("policy %s seed=%d: %d/%d tasks ran", polName, seed, len(seen), wl.Len())
		}
		for id, n := range seen {
			if n != 1 {
				return fmt.Errorf("policy %s seed=%d: task %d ran %d times", polName, seed, id, n)
			}
		}
		if k.Live() != 0 {
			return fmt.Errorf("policy %s seed=%d: %d processes leaked", polName, seed, k.Live())
		}
		return nil
	}

	names := []string{"timeshare", "cosched", "spinflag", "affinity", "partition"}
	i := 0
	err := quick.Check(func(rawSeed uint16) bool {
		seed := uint64(rawSeed)
		name := names[i%len(names)]
		control := i%2 == 0
		procs := 1 + int(seed)%8
		i++
		if err := check(seed, name, control, procs); err != nil {
			t.Log(err)
			return false
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Error(err)
	}
}

// TestStressMultiAppDeterminism runs a nondeterministic-looking mix
// twice and demands identical accounting — the simulator's core
// guarantee.
func TestStressMultiAppDeterminism(t *testing.T) {
	run := func() string {
		eng := sim.NewEngine(1234)
		mac := machine.New(machine.Multimax16())
		k := kernel.New(eng, mac, kernel.NewTimeshare(), kernel.DefaultConfig())
		srv := ctrl.NewServer(k, 0)
		var apps []*threads.App
		for i := 0; i < 3; i++ {
			wl := randomWorkload(uint64(100+i), 40)
			apps = append(apps, threads.Launch(k, kernel.AppID(i+1), wl, threads.Config{
				Procs: 8, Controller: srv, PollInterval: 100 * sim.Millisecond,
			}))
		}
		done := func() bool {
			for _, a := range apps {
				if !a.Done() {
					return false
				}
			}
			return true
		}
		for !done() && eng.Now() < sim.Time(120*sim.Second) {
			eng.Run(eng.Now().Add(sim.Second))
		}
		out := ""
		for _, a := range apps {
			out += fmt.Sprintf("%s=%v;", a.Name(), a.Elapsed())
		}
		for _, p := range k.Processes() {
			out += fmt.Sprintf("%d:%v/%v;", p.ID(), p.Stats.CPUTime, p.Stats.SpinTime)
		}
		return out
	}
	if a, b := run(), run(); a != b {
		t.Error("two identical runs diverged")
	}
}
