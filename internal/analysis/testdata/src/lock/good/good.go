// Package good shows the accepted lock-discipline idioms: defer
// unlock, *Locked helpers, early-unlock branches, immutable fields, and
// the justified pragma.
package good

import "sync"

type Counter struct {
	name string // immutable after construction: never written in a method
	mu   sync.Mutex
	n    int
}

func New(name string) *Counter { return &Counter{name: name} }

// Name reads an unguarded (never written) field: fine without the lock.
func (c *Counter) Name() string { return c.name }

func (c *Counter) Add(d int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addLocked(d)
}

// addLocked is assumed to run under the lock by naming convention.
func (c *Counter) addLocked(d int) { c.n += d }

func (c *Counter) Value() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// AddPositive unlocks on an early-return branch; the fallthrough path
// still holds the lock.
func (c *Counter) AddPositive(d int) bool {
	c.mu.Lock()
	if d <= 0 {
		c.mu.Unlock()
		return false
	}
	c.n += d
	c.mu.Unlock()
	return true
}

// Racy demonstrates the justified escape hatch.
func (c *Counter) Racy() int {
	//procctl:allow-unlocked fixture demonstrates the escape hatch; caller tolerates staleness
	return c.n
}
