package machine

import (
	"slices"

	"procctl/internal/sim"
)

// FootprintID identifies a cache working set (one per kernel process).
type FootprintID int64

// CPU is a single processor with its private cache. The kernel package
// owns scheduling state; the CPU only tracks cache residency and
// utilization accounting.
type CPU struct {
	id  int
	cfg Config

	// resident lists the footprints with working-set bytes in this
	// cache, oldest load first; the sum over all entries never exceeds
	// cfg.CacheSize. A working set the size of the cache evicts every
	// other one, so it rarely holds more than one or two entries, and a
	// slice keeps its order — and so the rounding of total — fixed.
	resident []residency
	total    float64 // sum of resident bytes

	lastFootprint FootprintID // footprint of the last process dispatched here

	// Accounting, all in virtual time.
	BusyTime   sim.Duration // time executing a process (incl. spin & reload)
	SwitchTime sim.Duration // time charged to context switches
	ReloadTime sim.Duration // time charged to cache reloads
	Switches   int64        // dispatches of a different process than last time

	// Cache-residency accounting (only kept when the cache is modeled,
	// i.e. CacheSize > 0 and the working set is known).
	CacheHits   int64 // dispatches that found the working set fully resident
	CacheMisses int64 // dispatches that paid a reload for an evicted fraction
}

// residency is how many bytes of footprint f's working set a cache
// holds.
type residency struct {
	f     FootprintID
	bytes float64
}

// residentSlots is the room each CPU's resident list starts with, in
// one array the machine allocates for all its CPUs; a list that
// outgrows it moves to an array of its own.
const residentSlots = 4

// find returns the position of footprint f in the resident list, or -1.
func (c *CPU) find(f FootprintID) int {
	for i := range c.resident {
		if c.resident[i].f == f {
			return i
		}
	}
	return -1
}

// ID returns the processor index.
func (c *CPU) ID() int { return c.id }

// Residency returns the fraction of working set ws (bytes) belonging to
// footprint f that is still resident in this cache, in [0, 1].
func (c *CPU) Residency(f FootprintID, ws int64) float64 {
	if ws <= 0 || c.cfg.CacheSize == 0 {
		return 1
	}
	i := c.find(f)
	if i < 0 {
		return 0
	}
	r := c.resident[i].bytes / float64(ws)
	if r > 1 {
		r = 1
	}
	return r
}

// Dispatch charges the cost of placing the process with footprint f and
// working-set size ws (bytes) onto this CPU: a context-switch cost if the
// CPU last ran a different process, plus a cache reload delay for the
// evicted part of the working set. It returns the two components and
// updates the cache contents (f's working set becomes fully resident,
// evicting other footprints proportionally).
func (c *CPU) Dispatch(f FootprintID, ws int64) (switchCost, reloadCost sim.Duration) {
	if f != c.lastFootprint {
		switchCost = c.cfg.ContextSwitch
		c.Switches++
	}
	c.lastFootprint = f
	if c.cfg.CacheSize == 0 || ws <= 0 {
		c.SwitchTime += switchCost
		return switchCost, 0
	}

	want := float64(ws)
	if want > float64(c.cfg.CacheSize) {
		want = float64(c.cfg.CacheSize)
	}
	i := c.find(f)
	have := 0.0
	if i >= 0 {
		have = c.resident[i].bytes
	}
	if have > want {
		have = want
	}
	missing := want - have
	if missing > 0 {
		reloadCost = sim.Duration(missing / c.cfg.ReloadRate)
		c.CacheMisses++
	} else {
		c.CacheHits++
		if c.resident[i].bytes == want {
			// Fully resident at exactly the target size: the eviction
			// pass below would remove and re-append f with identical
			// sizes and evict nothing (free ≥ want after removing f).
			// Skip the churn — warm re-dispatch of the same process is
			// the hottest case under affinity scheduling.
			c.SwitchTime += switchCost
			return switchCost, 0
		}
	}

	// Bring f fully resident, evicting other footprints proportionally
	// to make room.
	if i >= 0 {
		c.total -= c.resident[i].bytes
		c.resident = slices.Delete(c.resident, i, i+1)
	}
	free := float64(c.cfg.CacheSize) - c.total
	if want > free {
		// Evict (want-free) bytes spread over current occupants.
		shrink := (c.total - (want - free)) / c.total
		kept := c.resident[:0]
		for _, r := range c.resident {
			r.bytes *= shrink
			if r.bytes >= 1 {
				kept = append(kept, r)
			}
		}
		c.resident = kept
		c.total = 0
		for _, r := range kept {
			c.total += r.bytes
		}
	}
	c.resident = append(c.resident, residency{f, want})
	c.total += want

	c.SwitchTime += switchCost
	c.ReloadTime += reloadCost
	return switchCost, reloadCost
}

// Evict removes footprint f entirely (process exited).
func (c *CPU) Evict(f FootprintID) {
	if i := c.find(f); i >= 0 {
		c.total -= c.resident[i].bytes
		c.resident = slices.Delete(c.resident, i, i+1)
	}
	if c.lastFootprint == f {
		c.lastFootprint = -1
	}
}

// Utilization returns BusyTime / elapsed, given total elapsed time.
func (c *CPU) Utilization(elapsed sim.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.BusyTime) / float64(elapsed)
}
