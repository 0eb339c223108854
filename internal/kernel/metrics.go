package kernel

import (
	"strconv"

	"procctl/internal/metrics"
	"procctl/internal/sim"
)

// kernelMetrics is the simulation's metrics registry and the kernel's
// counts of the facts no other record keeps: plain fields, counted in
// virtual time on the simulation goroutine. The registry holds no
// kernel series: the snapshot collector (collect) derives every one
// from the one record of its fact (DESIGN.md "Each fact is stored
// once") — these counts, the per-process ProcStats, the per-CPU
// machine.CPU accounting, the per-lock SpinLock counts, and the live
// state for the gauges (per-CPU busy/idle, runnable counts).
type kernelMetrics struct {
	reg metrics.Registry

	preemptCrit int64
	migrations  int64
	runqWait    metrics.Tally

	// Fault-injection counts (internal/faultinject drives the events;
	// the kernel owns the recovery machinery being counted).
	kills  int64
	stalls int64
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

// collect derives every kernel series into d. Installed as a registry
// collector by New, so it runs (deterministically, on the simulation
// goroutine) at every snapshot.
func (k *Kernel) collect(d *metrics.Registry) {
	var hits, misses, switches int64
	var switchTime, reloadTime sim.Duration
	for i := range k.cpus {
		c := &k.cpus[i]
		cpu := strconv.Itoa(i)
		busy, idle := k.busyIdle(c)
		d.Gauge(metrics.Name("sim_cpu_busy_micros", "cpu", cpu), "virtual time executing processes").Set(int64(busy))
		d.Gauge(metrics.Name("sim_cpu_idle_micros", "cpu", cpu), "virtual time with no process to run").Set(int64(idle))
		d.Gauge(metrics.Name("sim_cpu_switch_micros", "cpu", cpu), "context-switch overhead paid on this CPU").Set(int64(c.hw.SwitchTime))
		d.Gauge(metrics.Name("sim_cpu_reload_micros", "cpu", cpu), "cache-reload penalty paid on this CPU").Set(int64(c.hw.ReloadTime))
		d.Gauge(metrics.Name("sim_cpu_switches", "cpu", cpu), "dispatches of a different process than last time").Set(c.hw.Switches)
		d.Gauge(metrics.Name("sim_cpu_cache_hits", "cpu", cpu), "dispatches with the working set fully resident").Set(c.hw.CacheHits)
		d.Gauge(metrics.Name("sim_cpu_cache_misses", "cpu", cpu), "dispatches that paid a reload penalty").Set(c.hw.CacheMisses)
		hits += c.hw.CacheHits
		misses += c.hw.CacheMisses
		switches += c.hw.Switches
		switchTime += c.hw.SwitchTime
		reloadTime += c.hw.ReloadTime
	}
	d.Gauge("sim_cache_hits", "cache-resident dispatches across all CPUs").Set(hits)
	d.Gauge("sim_cache_misses", "reload-paying dispatches across all CPUs").Set(misses)

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
	d.Gauge(MetricRunnable, "processes runnable or running (the paper's load measure)").Set(int64(runnable))
	d.Gauge(MetricLive, "processes not yet exited").Set(int64(live))

	d.Counter(MetricDispatches, "processes placed on a CPU").Add(dispatches)
	d.Counter(MetricPreemptions, "involuntary deschedules (quantum expiry or forced)").Add(preemptions)
	d.Counter(MetricCtxSwitches, "dispatches of a different process than the CPU ran last").Add(switches)
	d.Counter(MetricSwitchMicros, "virtual time charged to context-switch overhead").Add(int64(switchTime))
	d.Counter(MetricReloadMicros, "virtual time charged to cache reloads after corruption").Add(int64(reloadTime))
	d.Counter(MetricSpinMicros, "virtual CPU time burned spin-waiting on held locks").Add(int64(spinTime))
	d.Counter(MetricCPUMicros, "virtual CPU time consumed by processes (incl. spin and reload)").Add(int64(cpuTime))

	var forced int64
	for _, l := range k.locks {
		forced += l.ForcedReleases
	}
	d.Counter(MetricForcedReleases, "spinlocks force-released because their holder crashed").Add(forced)

	d.Counter(MetricPreemptCrit, "preemptions of a process holding a spinlock (the paper's Section 2 hazard)").Add(k.met.preemptCrit)
	d.Counter(MetricMigrations, "dispatches onto a different CPU than the process last ran on").Add(k.met.migrations)
	d.Histogram(MetricRunqWait, "runnable-to-dispatched wait per dispatch", nil).Add(&k.met.runqWait)
	d.Counter(MetricKills, "processes crashed by fault injection").Add(k.met.kills)
	d.Counter(MetricStalls, "stall faults applied to processes").Add(k.met.stalls)
}

// Metrics returns the simulation's metrics registry. The kernel (with
// the machine's gauges), the threads runtime and the simulated central
// server derive their series into every read of it, and fault
// injection counts into it; snapshot it with MetricsSnapshot (or
// directly with a sim.Time stamp) after — or during — a run.
func (k *Kernel) Metrics() *metrics.Registry { return &k.met.reg }

// MetricsSnapshot captures every metric at the current virtual instant.
// Same seed, same schedule, same snapshot — byte-identical across runs
// (asserted by internal/experiments).
func (k *Kernel) MetricsSnapshot() *metrics.Snapshot {
	return k.met.reg.Snapshot(int64(k.eng.Now()))
}
