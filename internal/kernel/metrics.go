package kernel

import (
	"strconv"

	"procctl/internal/metrics"
	"procctl/internal/sim"
)

// kernelMetrics holds the kernel's handles into the simulation's
// metrics registry for the facts it cannot derive from a record of its
// own: they are counted inline, in virtual time (a forced release is
// also counted on its SpinLock, but the kernel keeps no list of locks
// to sum). Every other kernel series is derived by the snapshot
// collector from the one record of its fact (DESIGN.md "Each fact is
// stored once"): the machine-wide totals are sums of the per-process
// ProcStats and the per-CPU machine.CPU accounting, and the state
// gauges (per-CPU busy/idle, runnable counts) read the live state.
// A derived series holds its last collected value until the next
// snapshot.
type kernelMetrics struct {
	reg *metrics.Registry

	preemptCrit *metrics.Counter
	migrations  *metrics.Counter
	runqWait    *metrics.Histogram

	// Fault-injection counters (internal/faultinject drives the events;
	// the kernel owns the recovery machinery being counted).
	kills          *metrics.Counter
	stalls         *metrics.Counter
	forcedReleases *metrics.Counter
}

// Metric names exported by the kernel layer; see DESIGN.md for the
// figure-to-counter mapping.
const (
	MetricDispatches   = "sim_kernel_dispatches_total"
	MetricPreemptions  = "sim_kernel_preemptions_total"
	MetricPreemptCrit  = "sim_kernel_preemptions_in_crit_total"
	MetricMigrations   = "sim_kernel_migrations_total"
	MetricCtxSwitches  = "sim_kernel_context_switches_total"
	MetricSwitchMicros = "sim_kernel_switch_micros_total"
	MetricReloadMicros = "sim_kernel_reload_micros_total"
	MetricSpinMicros   = "sim_kernel_spin_micros_total"
	MetricCPUMicros    = "sim_kernel_cpu_micros_total"
	MetricRunqWait     = "sim_kernel_runqueue_wait_micros"
	MetricRunnable     = "sim_kernel_runnable_procs"
	MetricLive         = "sim_kernel_live_procs"

	MetricKills          = "sim_kernel_kills_total"
	MetricStalls         = "sim_kernel_stalls_total"
	MetricForcedReleases = "sim_kernel_forced_lock_releases_total"
)

func newKernelMetrics(reg *metrics.Registry) *kernelMetrics {
	return &kernelMetrics{
		reg:         reg,
		preemptCrit: reg.Counter(MetricPreemptCrit, "preemptions of a process holding a spinlock (the paper's Section 2 hazard)"),
		migrations:  reg.Counter(MetricMigrations, "dispatches onto a different CPU than the process last ran on"),
		runqWait:    reg.Histogram(MetricRunqWait, "runnable-to-dispatched wait per dispatch", nil),

		kills:          reg.Counter(MetricKills, "processes crashed by fault injection"),
		stalls:         reg.Counter(MetricStalls, "stall faults applied to processes"),
		forcedReleases: reg.Counter(MetricForcedReleases, "spinlocks force-released because their holder crashed"),
	}
}

// busyIdle returns c's busy time, the leg in progress credited, and its
// idle time: the rest of the time since the kernel was created. A CPU
// is always running a process or idle, so idle needs no record of its
// own.
func (k *Kernel) busyIdle(c *cpuState) (busy, idle sim.Duration) {
	now := k.eng.Now()
	busy = c.hw.BusyTime
	if c.running != nil {
		busy += now.Sub(c.running.runStart)
	}
	return busy, now.Sub(k.born) - busy
}

// total moves the machine-wide counter name to sum, the value of its
// one record.
func (k *Kernel) total(name, help string, sum int64) {
	c := k.met.reg.Counter(name, help)
	c.Add(sum - c.Value())
}

// collect derives the machine-wide totals and refreshes the state
// gauges. Installed as a registry collector by New, so it runs
// (deterministically, on the simulation goroutine) at every snapshot.
func (k *Kernel) collect() {
	var hits, misses, switches int64
	var switchTime, reloadTime sim.Duration
	for i, c := range k.cpus {
		cpu := strconv.Itoa(i)
		busy, idle := k.busyIdle(c)
		k.met.reg.Gauge(metrics.Name("sim_cpu_busy_micros", "cpu", cpu), "virtual time executing processes").Set(int64(busy))
		k.met.reg.Gauge(metrics.Name("sim_cpu_idle_micros", "cpu", cpu), "virtual time with no process to run").Set(int64(idle))
		k.met.reg.Gauge(metrics.Name("sim_cpu_switch_micros", "cpu", cpu), "context-switch overhead paid on this CPU").Set(int64(c.hw.SwitchTime))
		k.met.reg.Gauge(metrics.Name("sim_cpu_reload_micros", "cpu", cpu), "cache-reload penalty paid on this CPU").Set(int64(c.hw.ReloadTime))
		k.met.reg.Gauge(metrics.Name("sim_cpu_switches", "cpu", cpu), "dispatches of a different process than last time").Set(c.hw.Switches)
		k.met.reg.Gauge(metrics.Name("sim_cpu_cache_hits", "cpu", cpu), "dispatches with the working set fully resident").Set(c.hw.CacheHits)
		k.met.reg.Gauge(metrics.Name("sim_cpu_cache_misses", "cpu", cpu), "dispatches that paid a reload penalty").Set(c.hw.CacheMisses)
		hits += c.hw.CacheHits
		misses += c.hw.CacheMisses
		switches += c.hw.Switches
		switchTime += c.hw.SwitchTime
		reloadTime += c.hw.ReloadTime
	}
	k.met.reg.Gauge("sim_cache_hits", "cache-resident dispatches across all CPUs").Set(hits)
	k.met.reg.Gauge("sim_cache_misses", "reload-paying dispatches across all CPUs").Set(misses)

	var dispatches, preemptions int64
	var spinTime, cpuTime sim.Duration
	runnable, live := 0, 0
	for _, p := range k.procs {
		dispatches += p.Stats.Dispatches
		preemptions += p.Stats.Preemptions
		spinTime += p.Stats.SpinTime
		cpuTime += p.Stats.CPUTime
		if p.killed && p.state != Exited {
			continue // crashed husk awaiting reap: neither runnable nor live
		}
		switch p.state {
		case Runnable, Running:
			runnable++
			live++
		case Blocked:
			live++
		}
	}
	k.met.reg.Gauge(MetricRunnable, "processes runnable or running (the paper's load measure)").Set(int64(runnable))
	k.met.reg.Gauge(MetricLive, "processes not yet exited").Set(int64(live))

	k.total(MetricDispatches, "processes placed on a CPU", dispatches)
	k.total(MetricPreemptions, "involuntary deschedules (quantum expiry or forced)", preemptions)
	k.total(MetricCtxSwitches, "dispatches of a different process than the CPU ran last", switches)
	k.total(MetricSwitchMicros, "virtual time charged to context-switch overhead", int64(switchTime))
	k.total(MetricReloadMicros, "virtual time charged to cache reloads after corruption", int64(reloadTime))
	k.total(MetricSpinMicros, "virtual CPU time burned spin-waiting on held locks", int64(spinTime))
	k.total(MetricCPUMicros, "virtual CPU time consumed by processes (incl. spin and reload)", int64(cpuTime))
}

// Metrics returns the simulation's metrics registry. The kernel, the
// machine gauges, the threads runtime, and the simulated central server
// all share it; snapshot it with MetricsSnapshot (or directly with a
// sim.Time stamp) after — or during — a run.
func (k *Kernel) Metrics() *metrics.Registry { return k.met.reg }

// MetricsSnapshot captures every metric at the current virtual instant.
// Same seed, same schedule, same snapshot — byte-identical across runs
// (asserted by internal/experiments).
func (k *Kernel) MetricsSnapshot() *metrics.Snapshot {
	return k.met.reg.Snapshot(int64(k.eng.Now()))
}
