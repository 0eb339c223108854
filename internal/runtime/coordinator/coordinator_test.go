package coordinator

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// fakeMember records targets pushed to it.
type fakeMember struct {
	mu      sync.Mutex
	name    string
	workers int
	target  int
	pushes  int
}

func (f *fakeMember) Name() string { return f.name }
func (f *fakeMember) Workers() int { return f.workers }
func (f *fakeMember) SetTarget(n int) {
	f.mu.Lock()
	f.target = n
	f.pushes++
	f.mu.Unlock()
}
func (f *fakeMember) got() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.target
}

func TestCoordinatorEqualSplit(t *testing.T) {
	c := New(16)
	a := &fakeMember{name: "a", workers: 16}
	b := &fakeMember{name: "b", workers: 16}
	c.RegisterWeighted(a, 1)
	c.RegisterWeighted(b, 1)
	if a.got() != 8 || b.got() != 8 {
		t.Errorf("targets %d/%d, want 8/8", a.got(), b.got())
	}
}

func TestCoordinatorSoloGetsAll(t *testing.T) {
	c := New(8)
	a := &fakeMember{name: "a", workers: 12}
	c.RegisterWeighted(a, 1)
	if a.got() != 8 {
		t.Errorf("solo target %d, want 8", a.got())
	}
}

func TestCoordinatorCap(t *testing.T) {
	c := New(16)
	small := &fakeMember{name: "small", workers: 2}
	big := &fakeMember{name: "big", workers: 16}
	c.RegisterWeighted(small, 1)
	c.RegisterWeighted(big, 1)
	if small.got() != 2 {
		t.Errorf("small target %d, want its cap 2", small.got())
	}
	if big.got() != 14 {
		t.Errorf("big target %d, want 14", big.got())
	}
}

func TestCoordinatorUnregisterRedistributes(t *testing.T) {
	c := New(8)
	a := &fakeMember{name: "a", workers: 8}
	b := &fakeMember{name: "b", workers: 8}
	c.RegisterWeighted(a, 1)
	c.RegisterWeighted(b, 1)
	c.Unregister("b")
	if a.got() != 8 {
		t.Errorf("after unregister, target %d, want 8", a.got())
	}
	if len(c.Members()) != 1 {
		t.Errorf("members = %v", c.Members())
	}
}

func TestCoordinatorExternalLoad(t *testing.T) {
	c := New(8)
	a := &fakeMember{name: "a", workers: 8}
	c.RegisterWeighted(a, 1)
	c.SetExternalLoad(6)
	if a.got() != 2 {
		t.Errorf("target %d with external load 6, want 2", a.got())
	}
	if c.ExternalLoad() != 6 {
		t.Errorf("ExternalLoad = %d", c.ExternalLoad())
	}
	c.SetExternalLoad(-5) // clamps to 0
	if a.got() != 8 {
		t.Errorf("target %d after load cleared, want 8", a.got())
	}
}

func TestCoordinatorStarvationFloor(t *testing.T) {
	c := New(4)
	var members []*fakeMember
	for _, n := range []string{"a", "b", "c"} {
		m := &fakeMember{name: n, workers: 4}
		members = append(members, m)
		c.RegisterWeighted(m, 1)
	}
	c.SetExternalLoad(100)
	for _, m := range members {
		if m.got() != 1 {
			t.Errorf("%s target %d on a saturated machine, want the floor 1", m.name, m.got())
		}
	}
}

func TestCoordinatorWeighted(t *testing.T) {
	c := New(12)
	heavy := &fakeMember{name: "heavy", workers: 12}
	light := &fakeMember{name: "light", workers: 12}
	c.RegisterWeighted(heavy, 2)
	c.RegisterWeighted(light, 1)
	if heavy.got() <= light.got() {
		t.Errorf("weighted split %d/%d", heavy.got(), light.got())
	}
	if heavy.got()+light.got() != 12 {
		t.Errorf("split %d+%d != 12", heavy.got(), light.got())
	}
}

func TestCoordinatorReplaceSameName(t *testing.T) {
	c := New(8)
	a1 := &fakeMember{name: "a", workers: 2}
	a2 := &fakeMember{name: "a", workers: 8}
	c.RegisterWeighted(a1, 1)
	c.RegisterWeighted(a2, 1)
	if len(c.Members()) != 1 {
		t.Fatalf("members = %v", c.Members())
	}
	if a2.got() != 8 {
		t.Errorf("replacement target %d", a2.got())
	}
}

func TestCoordinatorCapacity(t *testing.T) {
	if c := New(0); c.capacity() < 1 { // selects GOMAXPROCS
		t.Errorf("default capacity %d", c.capacity())
	}
	c := New(4)
	a := &fakeMember{name: "a", workers: 64}
	c.RegisterWeighted(a, 1)
	if a.got() != 4 {
		t.Errorf("target %d at capacity 4, want 4", a.got())
	}
}

func TestCoordinatorTargets(t *testing.T) {
	c := New(6)
	a := &fakeMember{name: "a", workers: 6}
	b := &fakeMember{name: "b", workers: 6}
	c.RegisterWeighted(a, 1)
	c.RegisterWeighted(b, 1)
	targets := c.Targets()
	if targets["a"] != 3 || targets["b"] != 3 {
		t.Errorf("Targets = %v", targets)
	}
	if c.Rebalances() < 2 {
		t.Errorf("Rebalances = %d", c.Rebalances())
	}
}

func TestCoordinatorConcurrentUse(t *testing.T) {
	c := New(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := &fakeMember{name: string(rune('a' + g)), workers: 8}
			for i := 0; i < 50; i++ {
				c.RegisterWeighted(m, 1)
				c.SetExternalLoad(i % 4)
				c.Targets()
				c.Unregister(m.name)
			}
		}()
	}
	wg.Wait()
	if len(c.Members()) != 0 {
		t.Errorf("members left over: %v", c.Members())
	}
}

// TestWorkersReadOnceAtRegistration: a member's process count is the one
// it registered with, as the journal records it. A Workers count that
// changes afterwards moves no target until the member registers again.
func TestWorkersReadOnceAtRegistration(t *testing.T) {
	c := New(16)
	a := &fakeMember{name: "a", workers: 16}
	b := &fakeMember{name: "b", workers: 16}
	c.RegisterWeighted(a, 1)
	c.RegisterWeighted(b, 1)
	a.workers = 2 // not re-registered: the coordinator must not see it
	c.Rebalance()
	if a.got() != 8 || b.got() != 8 {
		t.Errorf("after Workers changed unregistered: targets %d/%d, want the registered 8/8", a.got(), b.got())
	}
	c.RegisterWeighted(a, 1)
	if a.got() != 2 || b.got() != 14 {
		t.Errorf("after re-registering: targets %d/%d, want 2/14", a.got(), b.got())
	}
}

// sliceMember is a Member of a type that is not comparable: a struct with
// a slice field.
type sliceMember struct {
	name   string
	target *int
	tags   []string
}

func (s sliceMember) Name() string    { return s.name }
func (s sliceMember) Workers() int    { return 4 }
func (s sliceMember) SetTarget(n int) { *s.target = n }

// TestRegisterRefusesIncomparableMember: the fan-out tells handles apart
// with ==, which panics on two values of a non-comparable type. Such a
// Member is refused when it registers, before any lock, and the
// coordinator stays usable; it never reaches a rebalance.
func TestRegisterRefusesIncomparableMember(t *testing.T) {
	c := New(8)
	register := func(name string) (p any) {
		defer func() { p = recover() }()
		c.RegisterWeighted(sliceMember{name: name, target: new(int), tags: []string{name}}, 1)
		return nil
	}
	for _, name := range []string{"x", "y"} {
		// Anything else may have left c.mu held: stop before touching c again.
		if p := register(name); !strings.Contains(fmt.Sprint(p), "coordinator.sliceMember is not comparable") {
			t.Fatalf("RegisterWeighted(%s) panicked with %v, want the not-comparable refusal", name, p)
		}
	}
	a := &fakeMember{name: "a", workers: 16}
	c.RegisterWeighted(a, 1)
	c.Rebalance()
	if got := c.Targets(); len(got) != 1 || a.got() != 8 {
		t.Errorf("after the refusals: targets %v, a %d, want only a at 8", got, a.got())
	}
}
