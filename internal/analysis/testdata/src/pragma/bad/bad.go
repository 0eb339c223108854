// Package bad carries a pragma with no justification, which is itself
// a finding: the escape hatch requires a reason. It also carries a pragma
// naming no analyzer, which suppresses nothing and is a finding too.
package bad

import "sync"

type Box struct {
	mu sync.Mutex
	v  int
}

func (b *Box) Set(v int) {
	b.mu.Lock()
	b.v = v
	b.mu.Unlock()
}

func (b *Box) Get() int {
	//procctl:allow-unlocked
	return b.v
}

func (b *Box) Peek() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	//procctl:allow-unlockd a misspelled pragma still carries a reason
	return b.v
}
