// Package bad holds mutexes across blocking operations: directly, one
// call level down, and through open-ended interface dispatch.
package bad

import "sync"

type Server struct {
	mu        sync.Mutex
	closed    bool
	stopSweep chan struct{}
}

// Close tells the sweep loop to stop while it holds the lock: the bug
// seeded into Server.Close (EXPERIMENTS.md SIMPL-6). A sweep waiting for
// mu never receives, and Close never returns; no test hit that
// interleaving.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.stopSweep <- struct{}{} // want "channel send while holding"
}

type Q struct {
	mu sync.Mutex
	ch chan int
}

// SelectLocked parks in a select (no default) with the lock held.
func (q *Q) SelectLocked() {
	q.mu.Lock()
	defer q.mu.Unlock()
	select { // want "select while holding"
	case v := <-q.ch:
		_ = v
	}
}

// WaitDeep blocks two calls down: only the call graph sees it.
func (q *Q) WaitDeep() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.drain() // want "reachable while holding"
}

func (q *Q) drain() {
	q.recvOne()
}

func (q *Q) recvOne() {
	<-q.ch
}

// Member is application code: a call to it under a lock dispatches to an
// open-ended callee set.
type Member interface {
	SetTarget(n int)
}

type Coordinator struct {
	mu      sync.Mutex
	members []Member
	targets []int
}

// Rebalance pushes the targets inside its critical section: the bug
// seeded into rebalanceNow (SIMPL-6). The section lasts as long as the
// slowest member, the convoy the coordinator exists to avoid, and no test
// notices.
func (c *Coordinator) Rebalance() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, m := range c.members {
		m.SetTarget(c.targets[i]) // want "interface method Member.SetTarget"
	}
}
