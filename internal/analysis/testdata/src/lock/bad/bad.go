// Package bad accesses mutex-guarded fields without the lock.
package bad

import (
	"fmt"
	"sync"
)

type Counter struct {
	mu sync.Mutex
	n  int
	hi int
}

// Add establishes n and hi as guarded: they are written under mu.
func (c *Counter) Add(d int) {
	c.mu.Lock()
	c.n += d
	if c.n > c.hi {
		c.hi = c.n
	}
	c.mu.Unlock()
}

// String reads guarded fields without the lock: the bug seeded into
// pool.Pool.String (EXPERIMENTS.md SIMPL-6). Its one caller in the tests
// runs after the pool has gone quiet, so the race detector never sees it.
func (c *Counter) String() string {
	return fmt.Sprintf("%d (high %d)", c.n, c.hi) // want "without holding Counter.mu"
}

func (c *Counter) Reset() {
	c.n = 0 // want "write to Counter.n without holding Counter.mu"
}

// Watch starts a goroutine under the lock, but the goroutine does not
// hold it: a go literal starts unlocked.
func (c *Counter) Watch() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		fmt.Println(c.n) // want "read Counter.n without holding Counter.mu"
	}()
}

// Offer reads a guarded field in a select's comm clause without the lock.
func (c *Counter) Offer(ch chan<- int) bool {
	select {
	case ch <- c.hi: // want "read Counter.hi without holding Counter.mu"
		return true
	default:
		return false
	}
}

// Gauge is guarded by a reader/writer lock; Get reads it once more after
// RUnlock.
type Gauge struct {
	mu sync.RWMutex
	v  int
}

func (g *Gauge) Set(v int) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

func (g *Gauge) Get() int {
	g.mu.RLock()
	v := g.v
	g.mu.RUnlock()
	return v + g.v // want "read Gauge.v without holding Gauge.mu"
}
