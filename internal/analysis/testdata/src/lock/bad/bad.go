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
