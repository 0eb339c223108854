// Package faultinject perturbs a running simulation with seeded,
// deterministic faults: process and application crashes (optionally
// timed to land mid-critical-section), stalled processes, and flaky
// control traffic (dropped or delayed poll messages). The paper assumes
// cooperative applications; this package supplies the uncooperative
// ones, so the recovery machinery — forced lock release in the kernel,
// lease expiry in the central server — can be exercised and measured.
//
// All randomness comes from the injector's private sim.RNG stream, and
// every fault fires on the simulation engine, so a given seed yields a
// byte-identical fault schedule on every run.
package faultinject

import (
	"procctl/internal/kernel"
	"procctl/internal/metrics"
	"procctl/internal/sim"
	"procctl/internal/threads"
)

// LockCrashProbe is how often CrashAppInLock re-checks for a victim
// actually inside a critical section.
const LockCrashProbe = sim.Millisecond

// Metric names exported by the injector.
const (
	MetricCrashes      = "sim_fault_crashes_total"
	MetricLockCrashes  = "sim_fault_lock_crashes_total"
	MetricStalls       = "sim_fault_stalls_total"
	MetricPollsDropped = "sim_fault_polls_dropped_total"
	MetricPollsDelayed = "sim_fault_polls_delayed_total"
)

// Injector schedules faults against a kernel. Create one per run; its
// RNG stream is independent of the workload's, so adding or removing
// faults never perturbs application behaviour before the fault lands.
type Injector struct {
	k   *kernel.Kernel
	rng *sim.RNG

	crashes     *metrics.Counter
	lockCrashes *metrics.Counter
	stalls      *metrics.Counter
	drops       *metrics.Counter
	delays      *metrics.Counter
}

// New returns an injector for k with its own seeded random stream.
func New(k *kernel.Kernel, seed uint64) *Injector {
	reg := k.Metrics()
	return &Injector{
		k:           k,
		rng:         sim.NewRNG(seed),
		crashes:     reg.Counter(MetricCrashes, "processes killed by fault injection"),
		lockCrashes: reg.Counter(MetricLockCrashes, "app crashes injected while a process held a spinlock"),
		stalls:      reg.Counter(MetricStalls, "stall faults injected"),
		drops:       reg.Counter(MetricPollsDropped, "control polls lost in transit"),
		delays:      reg.Counter(MetricPollsDelayed, "control poll replies delivered one poll late"),
	}
}

// CrashApp kills every process of an application at the given instant —
// the whole program dying at once (SIGKILL, OOM, a node panic).
func (i *Injector) CrashApp(at sim.Time, app kernel.AppID) {
	i.k.Engine().Schedule(at, func() {
		i.crashes.Add(int64(i.k.KillApp(app)))
	})
}

// CrashAppInLock kills an application at the first instant at or after
// `after` when one of its processes is running inside a critical
// section, probing every LockCrashProbe until the window opens. This is
// the worst-case crash the paper's Section 2 worries about: the victim
// takes a spinlock with it, and only the kernel's forced release lets
// the survivors make progress. If the application exits (or is killed)
// before ever holding a lock, the probe stops without firing.
func (i *Injector) CrashAppInLock(after sim.Time, app kernel.AppID) {
	i.k.Engine().Schedule(after, func() { i.lockCrashProbe(app) })
}

func (i *Injector) lockCrashProbe(app kernel.AppID) {
	live := false
	for _, p := range i.k.Processes() {
		if p.App() != app || p.State() == kernel.Exited {
			continue
		}
		live = true
		if p.State() == kernel.Running && p.HoldingLocks() {
			i.lockCrashes.Inc()
			i.crashes.Add(int64(i.k.KillApp(app)))
			return
		}
	}
	if !live {
		return // nothing left to crash
	}
	i.k.Engine().After(LockCrashProbe, func() { i.lockCrashProbe(app) })
}

// StallApp freezes every process of an application for d starting at
// the given instant (a debugger STOP, a page-fault storm, a VM pause).
// The processes resume with their work intact when the stall lapses.
func (i *Injector) StallApp(at sim.Time, app kernel.AppID, d sim.Duration) {
	i.k.Engine().Schedule(at, func() {
		for _, p := range i.k.Processes() {
			if p.App() == app && i.k.Stall(p, d) {
				i.stalls.Inc()
			}
		}
	})
}

// FlakyController wraps a threads.Controller with lossy control
// traffic. Drops model a poll lost in transit: the server never hears
// it (so leases are not renewed) and the application keeps acting on
// its previous target. Delays model a reply arriving after the
// application stopped waiting: the server is contacted (lease renewed)
// but the fresh target only takes effect at the next poll.
type FlakyController struct {
	inner threads.Controller
	inj   *Injector
	rng   *sim.RNG

	DropProb  float64 // probability a poll is lost entirely
	DelayProb float64 // probability a reply slips one poll

	last map[kernel.AppID]int // last target each app actually received
}

// Flaky wraps inner with the given loss probabilities, drawing from the
// injector's random stream.
func (i *Injector) Flaky(inner threads.Controller, dropProb, delayProb float64) *FlakyController {
	return &FlakyController{
		inner:     inner,
		inj:       i,
		rng:       i.rng.Split(),
		DropProb:  dropProb,
		DelayProb: delayProb,
		last:      make(map[kernel.AppID]int),
	}
}

// Register passes through; registration is assumed reliable (the
// paper's root process retries until it succeeds).
func (f *FlakyController) Register(id kernel.AppID, procs int) {
	f.inner.Register(id, procs)
	f.last[id] = procs
}

// Unregister passes through.
func (f *FlakyController) Unregister(id kernel.AppID) {
	f.inner.Unregister(id)
	delete(f.last, id)
}

// Poll delivers the application's target through the lossy channel.
func (f *FlakyController) Poll(id kernel.AppID) int {
	stale, seen := f.last[id]
	if seen && f.DropProb > 0 && f.rng.Float64() < f.DropProb {
		f.inj.drops.Inc()
		return stale // lost in transit: server unaware, target unchanged
	}
	fresh := f.inner.Poll(id)
	if seen && f.DelayProb > 0 && f.rng.Float64() < f.DelayProb {
		f.inj.delays.Inc()
		f.last[id] = fresh
		return stale // reply late: acts on it at the next poll
	}
	f.last[id] = fresh
	return fresh
}
