package coordinator

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The golden was recorded on the tree that still rebuilt registration
// order with a sort over per-shard copies:
//
//	go test ./internal/runtime/coordinator -run TestTargetsGolden -update-targets-golden
var updateTargetsGolden = flag.Bool("update-targets-golden", false, "rewrite testdata/targets_seed17.golden instead of comparing")

// TestTargetsGolden pins registration order through the one thing it
// decides: with capacity below Σ procs the weighted round-robin hands the
// last processors out in member order, so any member out of place moves
// somebody's target. 500 members (weights 1–4, procs 1–16) and 60
// same-name re-registrations, each of which sends its member to the back.
func TestTargetsGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	type registration struct {
		m      *fakeMember
		weight int
	}
	var regs []registration
	sumProcs := 0
	members := make([]*fakeMember, 500)
	for i := range members {
		members[i] = &fakeMember{name: fmt.Sprintf("app-%03d", i), workers: 1 + rng.Intn(16)}
		sumProcs += members[i].workers
		regs = append(regs, registration{members[i], 1 + rng.Intn(4)})
	}
	for i := 0; i < 60; i++ {
		m := members[rng.Intn(len(members))]
		regs = append(regs, registration{&fakeMember{name: m.name, workers: m.workers}, 1 + rng.Intn(4)})
	}
	c := New(sumProcs * 3 / 5)
	for _, r := range regs {
		c.RegisterWeighted(r.m, r.weight)
	}

	var got bytes.Buffer
	targets := c.Targets()
	for _, name := range c.Members() {
		fmt.Fprintf(&got, "%s %d\n", name, targets[name])
	}
	path := filepath.Join("testdata", "targets_seed17.golden")
	if *updateTargetsGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("Members()/Targets() of the seeded fleet differ from %s (recorded on the tree that re-sorted per-shard copies)", path)
	}
}

// TestOrderTableMatchesCallOrder drives seeded random registrations,
// same-name re-registrations and unregistrations, while a second
// goroutine registers and unregisters names of its own (run it under
// -race). After every step the members
// the driver owns must be in the order of its calls, and no name may be
// registered twice.
func TestOrderTableMatchesCallOrder(t *testing.T) {
	names := make([]string, 160)
	for i := range names {
		names[i] = fmt.Sprintf("p-%03d", i)
	}

	c := New(64)
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		rng := rand.New(rand.NewSource(2))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("bg-%02d", rng.Intn(40))
			if i%3 == 2 {
				c.Unregister(name)
			} else {
				c.RegisterWeighted(&fakeMember{name: name, workers: 1 + rng.Intn(8)}, 1)
			}
		}
	}()
	defer bg.Wait()
	defer close(stop)

	rng := rand.New(rand.NewSource(1))
	var oracle []string
	for step := 0; step < 1500; step++ {
		name := names[rng.Intn(len(names))]
		at := slices.Index(oracle, name)
		if at >= 0 {
			oracle = slices.Delete(oracle, at, at+1)
		}
		if at >= 0 && rng.Intn(2) == 0 {
			c.Unregister(name)
		} else {
			c.RegisterWeighted(&fakeMember{name: name, workers: 1 + rng.Intn(8)}, 1+rng.Intn(4))
			oracle = append(oracle, name)
		}

		all := c.Members()
		seen := make(map[string]bool, len(all))
		for _, name := range all {
			if seen[name] {
				t.Fatalf("step %d: %s is registered twice", step, name)
			}
			seen[name] = true
		}
		mine := slices.DeleteFunc(all, func(n string) bool { return strings.HasPrefix(n, "bg-") })
		if !slices.Equal(mine, oracle) {
			t.Fatalf("step %d: Members() = %v, want call order %v", step, mine, oracle)
		}
	}
}

// The allocation policy is a weighted round-robin over members in
// registration order, so Members() has to be the order of the calls —
// including a re-registered member moving to the end.
func TestGatherPreservesRegistrationOrder(t *testing.T) {
	c := New(8)
	names := []string{"delta", "alpha", "echo", "bravo", "charlie", "foxtrot"}
	for _, name := range names {
		c.RegisterWeighted(&fakeMember{name: name, workers: 4}, 1)
	}
	got := c.Members()
	if len(got) != len(names) {
		t.Fatalf("got %d members, want %d", len(got), len(names))
	}
	for i := range names {
		if got[i] != names[i] {
			t.Fatalf("member order %v, want %v", got, names)
		}
	}
	// Re-registration moves the member to the end of allocation order,
	// as remove-then-append did in the flat table.
	c.RegisterWeighted(&fakeMember{name: "alpha", workers: 4}, 1)
	got = c.Members()
	if got[len(got)-1] != "alpha" {
		t.Errorf("re-registered member order %v, want alpha last", got)
	}
}
