package kernel

import (
	"procctl/internal/core"
	"procctl/internal/sim"
)

// ownerNone marks a processor not assigned to any group.
const ownerNone AppID = -1

// Partition is the paper's Section 7 proposal: the machine's processors
// are dynamically divided into processor groups, normally one per
// application (uncontrollable/system processes share the AppNone group).
// A high-level policy module periodically decides how many processors
// each group gets — equal shares capped by demand, every active group at
// least one — and each group schedules its own run queue on its own
// processors. Controlled and uncontrolled applications can no longer
// steal processors from each other, and processes stay on processors
// that hold their application's working sets. A processor whose group
// queue is empty backfills: it runs work from the longest other queue
// rather than idle.
type Partition struct {
	defaultHooks
	k       *Kernel
	queues  appQueues // one per group, in group creation order
	owner   []AppID   // CPU index -> owning group
	pending bool      // a repartition is scheduled for the current instant
	ticking bool      // the periodic repartition is armed
}

// repartitionInterval is the policy module's repartition period.
const repartitionInterval = 250 * sim.Millisecond

// NewPartition returns the policy.
func NewPartition() *Partition { return &Partition{} }

// Name implements Policy.
func (g *Partition) Name() string { return "partition" }

// Attach implements Policy.
func (g *Partition) Attach(k *Kernel) {
	g.k = k
	g.owner = make([]AppID, k.NumCPU())
	for i := range g.owner {
		g.owner[i] = ownerNone
	}
	g.arm()
}

// arm starts the periodic repartition. The first tick that finds no
// live process stops it, so that an engine with nothing left to run
// runs dry; the next Enqueue arms it again.
func (g *Partition) arm() {
	g.ticking = true
	g.k.Engine().Every(repartitionInterval, func() bool {
		g.repartition()
		g.ticking = g.k.Live() > 0
		return g.ticking
	})
}

// Enqueue implements Policy.
func (g *Partition) Enqueue(p *Process) {
	g.queues.of(p.app).Push(p)
	// A group with no processor at all gets its share at once, not a
	// full repartitionInterval later: in an engine event at this
	// instant, so that the rest of the group, spawned at the same
	// instant, counts in its demand. The same event re-arms a stopped
	// period: the tick that stopped it released every processor, so
	// the next Enqueue comes here.
	if !g.pending && g.cpuCount(p.app) == 0 {
		g.pending = true
		g.k.Engine().Schedule(g.k.Now(), func() {
			g.pending = false
			g.repartition()
			if !g.ticking {
				g.arm()
			}
		})
	}
}

func (g *Partition) cpuCount(app AppID) int {
	n := 0
	for _, o := range g.owner {
		if o == app {
			n++
		}
	}
	return n
}

// demand returns per-group demand in group creation order. Demand is
// the number of *live* (non-exited) processes: sizing groups by live
// rather than currently-runnable processes keeps the partition stable
// when process control suspends workers — otherwise the partition and
// the central server chase each other's reductions down to one
// processor (a feedback spiral; see the Section 7 experiment).
func (g *Partition) demand() ([]AppID, map[AppID]int) {
	d := make(map[AppID]int)
	for _, p := range g.k.Processes() {
		if p.state != Exited {
			d[p.app]++
		}
	}
	var active []AppID
	for _, app := range g.queues.order {
		if d[app] > 0 {
			active = append(active, app)
		}
	}
	// Apps can have demand before their first Enqueue reaches us only
	// via Running processes, which implies a prior Enqueue; so
	// g.queues.order covers every app with demand.
	return active, d
}

// repartition recomputes processor ownership: equal shares capped by
// demand, minimum one processor per active group, leftovers to the
// groups with the most unmet demand.
func (g *Partition) repartition() {
	active, dem := g.demand()
	ncpu := g.k.NumCPU()
	target := make(map[AppID]int)
	if len(active) > 0 {
		assign := equalShares(ncpu, active, dem)
		for i, app := range active {
			target[app] = assign[i]
		}
	}

	// Release processors from groups over target (highest index first)
	// and from inactive groups.
	over := make(map[AppID]int)
	for _, app := range active {
		over[app] = g.cpuCount(app) - target[app]
	}
	for i := ncpu - 1; i >= 0; i-- {
		o := g.owner[i]
		if o == ownerNone {
			continue
		}
		if target[o] == 0 || over[o] > 0 {
			if over[o] > 0 {
				over[o]--
			}
			g.owner[i] = ownerNone
		}
	}
	// Grant free processors to groups under target, in creation order.
	for _, app := range active {
		need := target[app] - g.cpuCount(app)
		for i := 0; i < ncpu && need > 0; i++ {
			if g.owner[i] == ownerNone {
				g.owner[i] = app
				need--
			}
		}
	}

	// Evict running processes from processors their group no longer owns.
	for i := 0; i < ncpu; i++ {
		if p := g.k.RunningOn(i); p != nil && g.owner[i] != p.app {
			g.k.Preempt(p)
		}
	}
	g.k.kickIdle()
}

// equalShares splits ncpu among the active groups by the paper's own
// rule, core.Allocate at unit weight: one each first, then round-robin
// while demand remains, never exceeding a group's demand. A processor
// belongs to one group, so past ncpu groups get none, where Allocate's
// floor would give each one.
func equalShares(ncpu int, active []AppID, dem map[AppID]int) []int {
	demands := make([]core.Demand, len(active))
	for i, app := range active {
		demands[i].Max = dem[app]
	}
	out := core.Allocate(ncpu, demands)
	clear(out[min(ncpu, len(out)):])
	return out
}

// PickNext implements Policy: the owning group's queue first, then the
// longest other queue.
func (g *Partition) PickNext(cpu int) *Process {
	own := g.owner[cpu]
	if own != ownerNone {
		if p := g.queues.byApp[own].Pop(); p != nil {
			return p
		}
	}
	var best *FIFO[*Process]
	for _, app := range g.queues.order {
		q := g.queues.byApp[app]
		if q.Len() > 0 && (best == nil || q.Len() > best.Len()) {
			best = q
		}
	}
	if best != nil {
		return best.Pop()
	}
	return nil
}

// CPUsOf reports how many processors app's group currently owns. The
// central server uses it (via ctrl.PartitionSizer) to align
// process-control targets with the partition, realizing the paper's
// Section 7 integration of the two mechanisms.
func (g *Partition) CPUsOf(app AppID) int { return g.cpuCount(app) }
