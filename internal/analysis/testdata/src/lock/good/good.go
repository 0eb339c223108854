// Package good shows the accepted lock-discipline idioms: defer
// unlock, *Locked helpers, early-unlock branches, immutable fields, the
// justified pragma, a callback defined under the lock, a select case
// under the lock, and a read lock.
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

// Sums hands a callback to a helper while it holds the lock: the literal
// inherits the lockset where it is defined.
func (c *Counter) Sums(k int) []int {
	var out []int
	c.mu.Lock()
	defer c.mu.Unlock()
	each(k, func(i int) { out = append(out, c.n+i) })
	return out
}

func each(k int, fn func(int)) {
	for i := 0; i < k; i++ {
		fn(i)
	}
}

// Offer reads a guarded field in a select's comm clause, under the lock
// (a default case keeps the select from blocking there).
func (c *Counter) Offer(ch chan<- int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case ch <- c.n:
		return true
	default:
		return false
	}
}

// Gauge is guarded by a reader/writer lock: RLock holds it as well as
// Lock does.
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
	defer g.mu.RUnlock()
	return g.v
}
