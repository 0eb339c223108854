package coordinator

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestShardIndexStableAndInRange(t *testing.T) {
	names := []string{"", "a", "fft", "sort-worker", "app00042"}
	for _, name := range names {
		i := shardIndex(name)
		if i < 0 || i >= shardCount {
			t.Fatalf("shardIndex(%q) = %d, out of [0,%d)", name, i, shardCount)
		}
		if j := shardIndex(name); j != i {
			t.Errorf("shardIndex(%q) unstable: %d then %d", name, i, j)
		}
	}
}

func TestShardStatsAccountForMembership(t *testing.T) {
	c := New(32)
	const n = 40
	for i := 0; i < n; i++ {
		c.RegisterWeighted(&fakeMember{name: fmt.Sprintf("m%02d", i), workers: 4}, 2)
	}
	stats := c.ShardStats()
	if len(stats) != shardCount {
		t.Fatalf("got %d shard stats, want %d", len(stats), shardCount)
	}
	members, weight, registers := 0, 0, int64(0)
	for _, st := range stats {
		members += st.Members
		weight += st.Weight
		registers += st.Registers
	}
	if members != n {
		t.Errorf("shard members sum %d, want %d", members, n)
	}
	if weight != 2*n {
		t.Errorf("shard weight sum %d, want %d", weight, 2*n)
	}
	if registers != n {
		t.Errorf("shard registers sum %d, want %d", registers, n)
	}

	c.Unregister("m00")
	c.Unregister("m01")
	members, unregisters := 0, int64(0)
	for _, st := range c.ShardStats() {
		members += st.Members
		unregisters += st.Unregisters
	}
	if members != n-2 {
		t.Errorf("after unregister, members sum %d, want %d", members, n-2)
	}
	if unregisters != 2 {
		t.Errorf("unregisters sum %d, want 2", unregisters)
	}
}

func TestNotePollCountsIntoShard(t *testing.T) {
	c := New(8)
	c.Register(&fakeMember{name: "pollster", workers: 4})
	for i := 0; i < 5; i++ {
		c.NotePoll("pollster")
	}
	polls := int64(0)
	for _, st := range c.ShardStats() {
		polls += st.Polls
	}
	if polls != 5 {
		t.Errorf("polls sum %d, want 5", polls)
	}
}

// Registration order must survive sharding: the allocation policy is a
// weighted round-robin over members in registration order, so the order
// table has to be exactly what a flat table would have had — including a
// re-registered member moving to the end.
func TestGatherPreservesRegistrationOrder(t *testing.T) {
	c := New(8)
	names := []string{"delta", "alpha", "echo", "bravo", "charlie", "foxtrot"}
	for _, name := range names {
		c.Register(&fakeMember{name: name, workers: 4})
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
	c.Register(&fakeMember{name: "alpha", workers: 4})
	got = c.Members()
	if got[len(got)-1] != "alpha" {
		t.Errorf("re-registered member order %v, want alpha last", got)
	}
}

func TestBatchingCoalescesRegistrations(t *testing.T) {
	c := New(16)
	stop := c.StartBatching(40 * time.Millisecond)
	defer stop()
	const n = 10
	members := make([]*fakeMember, n)
	for i := range members {
		members[i] = &fakeMember{name: fmt.Sprintf("burst%d", i), workers: 4}
		c.Register(members[i])
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		total := 0
		for _, m := range members {
			total += m.got()
		}
		if total == 16 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batched targets never converged: sum %d, want 16", total)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// All n registrations landed within (at most a couple of) windows,
	// far fewer epochs than events.
	if reb := c.Rebalances(); reb >= n {
		t.Errorf("rebalances = %d for %d batched registrations, want coalescing", reb, n)
	}
	if v := c.met.batchFlushes.Value(); v < 1 {
		t.Errorf("batch flushes = %d, want >= 1", v)
	}
	if v := c.met.batchCoalesced.Value(); v < 1 {
		t.Errorf("batch coalesced = %d, want >= 1", v)
	}
}

func TestBatchingStopFlushesPendingWork(t *testing.T) {
	c := New(8)
	stop := c.StartBatching(time.Hour) // never fires on its own
	m := &fakeMember{name: "late", workers: 8}
	c.Register(m)
	if got := m.got(); got != 0 {
		t.Fatalf("target pushed before any flush: %d", got)
	}
	stop()
	if got := m.got(); got != 8 {
		t.Errorf("target after stop-flush = %d, want 8", got)
	}
	// After stop, events rebalance inline again.
	m2 := &fakeMember{name: "after", workers: 8}
	c.Register(m2)
	if got := m2.got(); got != 4 {
		t.Errorf("post-batching inline target = %d, want 4", got)
	}
}

// White-box: a full admission semaphore turns OpRegister into a
// retryable busy reply without touching the registry.
func TestAdmitLimitShedsRegistration(t *testing.T) {
	srv, _ := startServerWith(t, 8, ServerConfig{AdmitLimit: 1})
	srv.admit <- struct{}{} // occupy the only admission slot
	cs := &connState{owned: make(map[string]*remoteMember)}
	resp := srv.dispatch(&Request{Op: OpRegister, App: "shedme", Procs: 4}, cs, time.Now())
	if resp.OK || !resp.Busy {
		t.Fatalf("register with full admission = %+v, want busy", resp)
	}
	if resp.RetryAfterMs <= 0 {
		t.Errorf("busy reply RetryAfterMs = %d, want > 0", resp.RetryAfterMs)
	}
	if got := len(srv.Coordinator().Members()); got != 0 {
		t.Errorf("shed registration still registered %d members", got)
	}
	if v := srv.shedReg.Value(); v != 1 {
		t.Errorf("shed registrations counter = %d, want 1", v)
	}
	<-srv.admit // release; the next registration is admitted
	resp = srv.dispatch(&Request{Op: OpRegister, App: "shedme", Procs: 4}, cs, time.Now())
	if !resp.OK {
		t.Fatalf("register after release failed: %+v", resp)
	}
	if v := srv.admitted.Value(); v != 1 {
		t.Errorf("admitted counter = %d, want 1", v)
	}
}

func TestMaxConnsShedsWholeConnection(t *testing.T) {
	_, sock := startServerWith(t, 8, ServerConfig{MaxConns: 1})
	c1, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.Register("first", 4); err != nil {
		t.Fatal(err)
	}

	c2, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	_, err = c2.Register("second", 4)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("register over the connection cap: err = %v, want ErrBusy", err)
	}

	// Once the first connection is gone the cap has room again; the
	// server needs a moment to reap the closed connection.
	c1.Close()
	deadline := time.Now().Add(3 * time.Second)
	for {
		c3, err := Dial("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c3.Register("third", 4)
		if err == nil {
			c3.Close()
			return
		}
		c3.Close()
		if !errors.Is(err, ErrBusy) {
			t.Fatalf("retry register: err = %v, want nil or ErrBusy", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("connection slot never freed after close")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestShardStatusOverWire(t *testing.T) {
	_, sock := startServerWith(t, 8, ServerConfig{AdmitLimit: 4})
	c, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Register("wired", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Poll("wired"); err != nil {
		t.Fatal(err)
	}

	st, err := c.ShardStatus()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != shardCount {
		t.Fatalf("shard status rows = %d, want %d", len(st.Shards), shardCount)
	}
	members, polls := 0, int64(0)
	for _, sh := range st.Shards {
		members += sh.Members
		polls += sh.Polls
	}
	if members != 1 {
		t.Errorf("shard members sum %d, want 1", members)
	}
	if polls != 1 {
		t.Errorf("shard polls sum %d, want 1", polls)
	}
	if st.Admission == nil {
		t.Fatal("admission status missing")
	}
	if st.Admission.AdmitLimit != 4 || st.Admission.Admitted != 1 {
		t.Errorf("admission = %+v, want limit 4, admitted 1", st.Admission)
	}

	// The plain status op stays lean: no shard table unless asked.
	plain, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if plain.Shards != nil || plain.Admission != nil {
		t.Error("plain status unexpectedly carries shard/admission data")
	}
}

func TestDriveWithRetriesBusyRegistration(t *testing.T) {
	_, sock := startServerWith(t, 8, ServerConfig{MaxConns: 1})
	holder, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := holder.Register("holder", 4); err != nil {
		t.Fatal(err)
	}

	late, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	done := make(chan error, 1)
	go func() {
		d, err := late.DriveWith("late", 4, &fakeMember{name: "late", workers: 4}, DriveOptions{
			Interval:      50 * time.Millisecond,
			BackoffMin:    20 * time.Millisecond,
			BackoffMax:    100 * time.Millisecond,
			AdmitPatience: 10 * time.Second,
		})
		if err == nil {
			d.Stop()
		}
		done <- err
	}()

	// Give the driver time to be shed at least once, then make room.
	time.Sleep(150 * time.Millisecond)
	holder.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("DriveWith never recovered from busy: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("DriveWith still retrying after the connection slot freed")
	}
}

func TestPollBenchFastPathZeroAlloc(t *testing.T) {
	b := NewPollBench(64)
	allocs := testing.AllocsPerRun(1000, func() {
		b.Poll(7, 1)
	})
	if allocs != 0 {
		t.Errorf("poll fast path allocates %.1f per op, want 0", allocs)
	}
}
