package machine

import (
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

	// resident maps a process's footprint ID to the number of its
	// working-set bytes currently in this cache. The sum over all
	// entries never exceeds cfg.CacheSize.
	resident map[FootprintID]float64
	total    float64 // sum of resident values

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

func newCPU(id int, cfg Config) *CPU {
	return &CPU{
		id:            id,
		cfg:           cfg,
		resident:      make(map[FootprintID]float64),
		lastFootprint: -1,
	}
}

// ID returns the processor index.
func (c *CPU) ID() int { return c.id }

// Residency returns the fraction of working set ws (bytes) belonging to
// footprint f that is still resident in this cache, in [0, 1].
func (c *CPU) Residency(f FootprintID, ws int64) float64 {
	if ws <= 0 || c.cfg.CacheSize == 0 {
		return 1
	}
	r := c.resident[f] / float64(ws)
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
	have := c.resident[f]
	if have > want {
		have = want
	}
	missing := want - have
	if missing > 0 {
		reloadCost = sim.Duration(missing / c.cfg.ReloadRate)
		c.CacheMisses++
	} else {
		c.CacheHits++
		if c.resident[f] == want {
			// Fully resident at exactly the target size: the eviction
			// pass below would delete and re-insert f with identical
			// sizes and evict nothing (free ≥ want after removing f).
			// Skip the map churn — warm re-dispatch of the same process
			// is the hottest case under affinity scheduling.
			c.SwitchTime += switchCost
			return switchCost, 0
		}
	}

	// Bring f fully resident, evicting other footprints proportionally
	// to make room.
	c.total -= c.resident[f]
	delete(c.resident, f)
	free := float64(c.cfg.CacheSize) - c.total
	if want > free {
		// Evict (want-free) bytes spread over current occupants.
		shrink := (c.total - (want - free)) / c.total
		for id, v := range c.resident {
			nv := v * shrink
			if nv < 1 {
				delete(c.resident, id)
			} else {
				c.resident[id] = nv
			}
		}
		c.total = 0
		for _, v := range c.resident {
			c.total += v
		}
	}
	c.resident[f] = want
	c.total += want

	c.SwitchTime += switchCost
	c.ReloadTime += reloadCost
	return switchCost, reloadCost
}

// Evict removes footprint f entirely (process exited).
func (c *CPU) Evict(f FootprintID) {
	if v, ok := c.resident[f]; ok {
		c.total -= v
		delete(c.resident, f)
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
