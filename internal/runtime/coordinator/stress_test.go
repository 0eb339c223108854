package coordinator

import (
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"procctl/internal/flight"
	"procctl/internal/journal"
	"procctl/internal/runtime/pool"
)

// Two rebalances that decide different targets race from two goroutines.
// Their fan-outs run unlocked, so the older epoch's push can land on a
// pool second; the pool must refuse it and end every round on the newest
// epoch's target, the one the registry holds.
func TestRacingRebalancesEndOnNewestEpoch(t *testing.T) {
	c := New(8)
	pools := make([]*pool.Pool, 4)
	for i := range pools {
		pools[i] = pool.New(pool.Config{Name: fmt.Sprintf("p%d", i), Workers: 8})
		defer pools[i].Close()
		c.Register(pools[i])
	}
	for round := 0; round < 500; round++ {
		var wg sync.WaitGroup
		for _, load := range []int{round % 5, (round + 2) % 5} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.SetExternalLoad(load)
			}()
		}
		wg.Wait()
		targets := c.Targets()
		for _, p := range pools {
			if got, want := p.Target(), targets[p.Name()]; got != want {
				t.Fatalf("round %d: pool %s runs target %d, but the newest epoch decided %d", round, p.Name(), got, want)
			}
		}
	}
}

// TestCoordinatorRaceStress hammers one coordinator from many host
// goroutines at once — local members registering and unregistering,
// remote clients polling over the socket protocol, and a driver
// mutating capacity and load-awareness — so that `go test -race
// ./internal/runtime/...` exercises every mutex-guarded path the
// lockdiscipline analyzer reasons about statically. The static check
// and this dynamic one are two halves of the same guarantee.
func TestCoordinatorRaceStress(t *testing.T) {
	const (
		nLocal   = 4
		nClients = 4
		iters    = 120
	)

	c := New(16)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(c, ln)
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = srv.Serve() // returns net.ErrClosed after srv.Close
	}()

	var wg sync.WaitGroup

	// Driver: flip the coordinator-wide knobs while everyone else runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < iters; j++ {
			c.SetLoadAware(j%2 == 0)
			if err := c.SetCapacity(8 + 8*(j%2)); err != nil {
				t.Errorf("SetCapacity: %v", err)
			}
			_ = c.Rebalances()
			_ = c.Members()
		}
	}()

	// Local members: adaptive pools churning through registration,
	// rebalance, and target reads.
	for i := 0; i < nLocal; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := pool.New(pool.Config{Name: fmt.Sprintf("local-%d", i), Workers: 4})
			defer func() {
				p.Close()
				p.Wait()
			}()
			for j := 0; j < iters; j++ {
				c.RegisterWeighted(p, 1+j%3)
				if err := p.Submit(func() {}); err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				c.Rebalance()
				_ = c.Targets()
				_ = c.Capacity()
				c.SetExternalLoad(j % 3)
				c.Unregister(p.Name())
			}
		}(i)
	}

	// Remote members: socket clients registering, polling, and asking
	// for status snapshots (which walk the member list under the lock).
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer cl.Close()
			app := fmt.Sprintf("remote-%d", i)
			if _, err := cl.Register(app, 8); err != nil {
				t.Errorf("register: %v", err)
				return
			}
			for j := 0; j < iters; j++ {
				if _, err := cl.Poll(app); err != nil {
					t.Errorf("poll: %v", err)
					return
				}
				if _, err := cl.Status(); err != nil {
					t.Errorf("status: %v", err)
					return
				}
			}
			if err := cl.Unregister(app); err != nil {
				t.Errorf("unregister: %v", err)
			}
		}(i)
	}

	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	<-serveDone
}

// Ownership by identity. A socket member is made per registration and
// the registry's handle for a name is the member that holds it, so "is
// this name still mine" is asked of the registry, under c.mu, by whoever
// is about to remove it: a dropped connection's release, an unregister
// request, the lease sweep. The three tests below race those removals
// against a registration of the same name (run them under -race).

// holderOf returns the socket member the registry holds for name, nil
// when the name is not registered.
func holderOf(c *Coordinator, name string) *remoteMember {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.reg.Get(name)
	if !ok {
		return nil
	}
	return m.Handle.(*entry).m.(*remoteMember)
}

func newTestConn() *connState {
	return &connState{owned: make(map[string]*remoteMember), accepted: time.Now()}
}

// register registers app on cs; safe to call off the test's goroutine.
func register(t *testing.T, srv *Server, cs *connState, app string) {
	t.Helper()
	if resp := srv.dispatch(&Request{Op: OpRegister, App: app, Procs: 4}, cs, time.Now()); !resp.OK {
		t.Errorf("register %s: %+v", app, resp)
	}
}

// TestReRegisterRacesTeardown: a restarted client registers its name from
// a fresh connection while the connection that held it is being torn down
// — dropped, or (every other round) unregistering the name as its last
// request. Exactly one registration survives, and it is the new one.
func TestReRegisterRacesTeardown(t *testing.T) {
	srv := NewServerWith(New(8), nil, ServerConfig{})
	for round := 0; round < 1000; round++ {
		old, fresh := newTestConn(), newTestConn()
		register(t, srv, old, "app")
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			if round%2 == 1 {
				if resp := srv.dispatch(&Request{Op: OpUnregister, App: "app"}, old, time.Now()); !resp.OK {
					t.Errorf("round %d: unregister on the old connection: %+v", round, resp)
				}
			}
			srv.release(old)
		}()
		go func() {
			defer wg.Done()
			<-start
			register(t, srv, fresh, "app")
		}()
		close(start)
		wg.Wait()
		if got := srv.coord.Members(); len(got) != 1 || got[0] != "app" {
			t.Fatalf("round %d: members %v, want the one new registration", round, got)
		}
		if m := holderOf(srv.coord, "app"); m != fresh.owned["app"] || m.conn != fresh {
			t.Fatalf("round %d: the name is held by %+v, not by the fresh connection's registration", round, m)
		}
		srv.release(fresh)
		if got := srv.coord.Members(); len(got) != 0 {
			t.Fatalf("round %d: members %v after both connections are gone", round, got)
		}
	}
}

// placeholderRig is a journaled server restored with one placeholder,
// "ghost", whose grace lease ends at lapse.
type placeholderRig struct {
	srv   *Server
	dir   string
	lapse time.Time
}

func newPlaceholderRig(t *testing.T) placeholderRig {
	t.Helper()
	rig := placeholderRig{dir: t.TempDir(), srv: NewServerWith(New(8), nil, ServerConfig{Lease: time.Minute})}
	boot := time.Now()
	rig.lapse = boot.Add(time.Minute)
	rig.srv.Restore(journal.State{Capacity: 8, Members: []journal.Member{
		{Name: "ghost", Procs: 4, Weight: 1, Target: 4, LastSeen: 1},
	}}, boot)
	w, err := journal.Open(rig.dir, 1, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	rig.srv.coord.SetJournal(w)
	// What was restored is the journal's base; the race is folded onto it.
	if err := w.WriteSnapshot(rig.srv.JournalState(boot.UnixMicro())); err != nil {
		t.Fatal(err)
	}
	return rig
}

// outcome checks what every ending has in common — the name is held by
// the client's registration, never by the placeholder and never by nobody
// — and reports whether the placeholder expired first: one lease_expiry
// and one unregister event of the name, and the counter, or none of the
// three.
func (rig placeholderRig) outcome(t *testing.T, client *connState) (expired bool) {
	t.Helper()
	c := rig.srv.coord
	if got := c.Members(); len(got) != 1 || got[0] != "ghost" {
		t.Fatalf("members %v, want [ghost]", got)
	}
	if m := holderOf(c, "ghost"); m != client.owned["ghost"] || m.conn != client {
		t.Fatalf("ghost is held by %+v, not by the client's registration", m)
	}
	counts := make(map[string]int64)
	for _, ev := range c.Events(0) {
		if ev.App == "ghost" {
			counts[ev.Kind]++
		}
	}
	expiries, _ := c.Metrics().Value("coordinator_lease_expiries_total")
	n := counts[flight.KindLeaseExpiry]
	if n > 1 || counts[flight.KindUnregister] != n || expiries != n || counts[flight.KindRegister] != 1 {
		t.Fatalf("events of ghost %v with %d counted expiries: want one register and none or one each of lease_expiry and unregister", counts, expiries)
	}
	return n == 1
}

// TestPlaceholderClaimedAsLeaseLapses: a recovered placeholder is claimed
// at the instant its grace lease lapses. It ends either claimed (no
// expiry recorded, the sweep passing over a name that is no longer the
// placeholder's) or expired and unregistered, with the client's
// registration a new one — never both, never neither.
//
// Taken one after the other, in either order, or raced, the journal then
// folds to the live registry by bytes: the two queue their records within
// their c.mu sections, so the records' order is the registry's.
func TestPlaceholderClaimedAsLeaseLapses(t *testing.T) {
	for _, claimFirst := range []bool{true, false} {
		rig, client := newPlaceholderRig(t), newTestConn()
		rig.srv.sweep(rig.lapse) // the instant itself is still inside the lease
		if m := holderOf(rig.srv.coord, "ghost"); m == nil || m.conn != nil {
			t.Fatalf("claim first %v: the placeholder did not last its whole lease: %+v", claimFirst, m)
		}
		if claimFirst {
			register(t, rig.srv, client, "ghost")
		}
		rig.srv.sweep(rig.lapse.Add(time.Nanosecond))
		if !claimFirst {
			register(t, rig.srv, client, "ghost")
		}
		if expired := rig.outcome(t, client); expired == claimFirst {
			t.Fatalf("claim first %v: expired %v", claimFirst, expired)
		}
		requireJournalFoldsToLive(t, rig.srv.coord, rig.dir, fmt.Sprintf("claim first %v", claimFirst))
	}

	rounds := 300
	if testing.Short() {
		rounds = 30
	}
	var claimed, expired int
	for round := 0; round < rounds; round++ {
		rig, client := newPlaceholderRig(t), newTestConn()
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			rig.srv.sweep(rig.lapse.Add(time.Nanosecond))
		}()
		go func() {
			defer wg.Done()
			<-start
			register(t, rig.srv, client, "ghost")
		}()
		close(start)
		wg.Wait()
		if rig.outcome(t, client) {
			expired++
		} else {
			claimed++
		}
		requireJournalFoldsToLive(t, rig.srv.coord, rig.dir, fmt.Sprintf("round %d", round))
		// Whichever it was, it is over: a later sweep finds nothing.
		rig.srv.sweep(rig.lapse.Add(time.Hour))
		rig.outcome(t, client)
	}
	t.Logf("%d rounds: %d claimed, %d expired first", rounds, claimed, expired)
}

// TestMassLeaseExpiry: 200 connections of 10 members each all go silent
// past the lease and one sweep collects them: ten lease_expiry records per
// connection, names ascending, each saying ten expired together and each
// ahead of its member's unregister record, and an empty registry once the
// handlers have released their connections.
func TestMassLeaseExpiry(t *testing.T) {
	const conns, each = 200, 10
	dir := t.TempDir()
	sock := filepath.Join(t.TempDir(), "procctld.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	c := New(64)
	w, err := journal.Open(dir, 1, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c.SetJournal(w)
	defer c.StartBatching(DefaultBatchWindow)() // 2,000 inline rebalances of up to 2,000 members otherwise
	srv := NewServerWith(c, ln, ServerConfig{Lease: time.Hour, SweepInterval: time.Hour})
	go srv.Serve()
	defer srv.Close()

	connOf := make(map[string]int)
	for i := 0; i < conns; i++ {
		cl, err := Dial("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		for _, j := range rand.Perm(each) { // registration order is not name order
			name := fmt.Sprintf("c%03d-m%d", i, j)
			connOf[name] = i
			if _, err := cl.Register(name, 2); err != nil {
				t.Fatal(err)
			}
		}
	}

	srv.sweep(time.Now().Add(2 * time.Hour))
	waitFor(t, 10*time.Second, func() bool { return len(c.Members()) == 0 }, "the swept connections' members never left")
	if v, _ := c.Metrics().Value("coordinator_lease_expiries_total"); v != conns*each {
		t.Errorf("coordinator_lease_expiries_total = %d, want %d", v, conns*each)
	}
	c.journalFlush(false) // the members are gone; a handler may still be on its way to the journal
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := journal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	var expiries []journal.Record
	gone := make(map[string]string) // name -> the first record of its departure
	for _, rec := range recs {
		if rec.Kind != flight.KindLeaseExpiry && rec.Kind != flight.KindUnregister {
			continue
		}
		if _, ok := gone[rec.App]; !ok {
			gone[rec.App] = rec.Kind
		}
		if rec.Kind == flight.KindLeaseExpiry {
			expiries = append(expiries, rec)
		}
	}
	if len(expiries) != conns*each {
		t.Fatalf("%d lease_expiry records, want %d", len(expiries), conns*each)
	}
	for i, rec := range expiries {
		if rec.A != each {
			t.Fatalf("lease_expiry of %s says %d expired together, want %d", rec.App, rec.A, each)
		}
		if i%each > 0 && (connOf[rec.App] != connOf[expiries[i-1].App] || rec.App <= expiries[i-1].App) {
			t.Fatalf("lease_expiry records %d and %d are %s then %s: want one connection's names, ascending",
				i-1, i, expiries[i-1].App, rec.App)
		}
		if gone[rec.App] != flight.KindLeaseExpiry {
			t.Fatalf("%s was unregistered before its lease_expiry was recorded", rec.App)
		}
	}
	if len(gone) != conns*each {
		t.Fatalf("%d names departed, want %d", len(gone), conns*each)
	}
}
