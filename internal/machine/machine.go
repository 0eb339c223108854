// Package machine models the hardware of a shared-memory multiprocessor:
// a set of identical processors, the cost of a context switch, and a
// per-processor cache whose contents are corrupted when several processes
// are multiplexed on the same CPU.
//
// The cache uses a lumped residency model: each process has a working-set
// footprint; the cache tracks what fraction of each process's working set
// is still resident. When a process is dispatched, the machine charges a
// reload delay proportional to the evicted fraction, and running a
// process evicts other processes' lines in proportion to the footprint it
// touches. This reproduces the paper's "cache corruption" degradation
// (Section 2, point 4) without per-access simulation.
package machine

import (
	"fmt"

	"procctl/internal/sim"
)

// Config describes the simulated hardware.
type Config struct {
	// NumCPU is the number of processors (the paper's Multimax has 16).
	NumCPU int

	// ContextSwitch is the fixed kernel cost charged on every dispatch
	// of a different process than the one that ran last on the CPU
	// (register save/restore, address-space switch).
	ContextSwitch sim.Duration

	// CacheSize is the per-CPU cache capacity in abstract bytes.
	CacheSize int64

	// ReloadRate is how many bytes of working set a process refetches
	// per microsecond while reloading a cold cache. The reload delay on
	// dispatch is evictedBytes / ReloadRate.
	ReloadRate float64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.NumCPU <= 0 {
		return fmt.Errorf("machine: NumCPU must be positive, got %d", c.NumCPU)
	}
	if c.ContextSwitch < 0 {
		return fmt.Errorf("machine: negative ContextSwitch %v", c.ContextSwitch)
	}
	if c.CacheSize < 0 {
		return fmt.Errorf("machine: negative CacheSize %d", c.CacheSize)
	}
	if c.CacheSize > 0 && c.ReloadRate <= 0 {
		return fmt.Errorf("machine: CacheSize set but ReloadRate %v not positive", c.ReloadRate)
	}
	return nil
}

// Multimax16 approximates the paper's 16-processor Encore Multimax: a
// modest context-switch cost and a small per-CPU cache with a reload
// penalty of a few milliseconds for a full working set.
func Multimax16() Config {
	return Config{
		NumCPU:        16,
		ContextSwitch: 500 * sim.Microsecond,
		CacheSize:     256 << 10, // 256 KiB
		ReloadRate:    24,        // 24 B/µs ≈ 5.3 ms to reload a 128 KiB working set
	}
}

// Scalable returns a machine like the scalable multiprocessors the paper
// anticipates (Encore Ultramax, Stanford DASH): the same CPU count but a
// cache-miss service time `factor` times more expensive, so cache
// corruption costs factor× more to repair.
func Scalable(factor float64) Config {
	c := Multimax16()
	if factor > 0 {
		c.ReloadRate /= factor
	}
	return c
}

// Machine is the instantiated hardware: a clock-independent array of CPUs.
type Machine struct {
	cfg  Config
	cpus []*CPU
}

// New builds a machine from cfg. It panics on an invalid configuration;
// configs come from code, not user input.
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{cfg: cfg}
	m.cpus = make([]*CPU, cfg.NumCPU)
	for i := range m.cpus {
		m.cpus[i] = newCPU(i, cfg)
	}
	return m
}

// NumCPU returns the processor count.
func (m *Machine) NumCPU() int { return m.cfg.NumCPU }

// CPU returns processor i.
func (m *Machine) CPU(i int) *CPU { return m.cpus[i] }

// CPUs returns all processors in index order.
func (m *Machine) CPUs() []*CPU { return m.cpus }
