package ctrl_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"procctl/internal/ctrl"
	"procctl/internal/journal"
	"procctl/internal/runtime/coordinator"
)

// stubMember is an in-process member of a fixed process count: what a
// register record says of it stays true, as it does of a socket member.
type stubMember struct {
	name    string
	workers int
	target  atomic.Int64
}

func (m *stubMember) Name() string    { return m.name }
func (m *stubMember) Workers() int    { return m.workers }
func (m *stubMember) SetTarget(n int) { m.target.Store(int64(n)) }

// churnJournaled boots a journaled daemon on dir and drives it from four
// goroutines at once — two socket clients on a connection each, two
// callers registering in-process members — each registering, re-weighting
// and unregistering names of its own and flipping the external load. It
// returns with the callers joined, the batcher (if any) flushed and the
// daemon still up, its socket members registered: the moment to compare
// the journal with the live registry.
func churnJournaled(t *testing.T, dir string, opts journal.Options, batch bool) *coordinator.Server {
	t.Helper()
	const callers, rounds = 4, 50
	sock := filepath.Join(t.TempDir(), "procctld.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	coord := coordinator.New(16)
	srv := coordinator.NewServerWith(coord, ln, coordinator.ServerConfig{})
	w, err := journal.Open(dir, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	coord.SetJournal(w)
	if err := coord.SetCapacity(16); err != nil {
		t.Fatal(err)
	}
	stopBatch := func() {}
	if batch {
		stopBatch = coord.StartBatching(200 * time.Microsecond)
	}
	go srv.Serve()
	t.Cleanup(func() {
		srv.Close()
		w.Close()
	})

	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		var client *coordinator.Client
		if g%2 == 0 {
			client = dial(t, sock)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("g%d-m%d", g, rng.Intn(4))
				procs, weight, load := 1+rng.Intn(8), 1+rng.Intn(3), rng.Intn(6)
				var err error
				if client != nil {
					if _, err = client.RegisterWeighted(name, procs, weight); err == nil {
						err = client.SetExternalLoad(load)
					}
					if err == nil && i%3 == 0 {
						err = client.Unregister(name)
					}
				} else {
					coord.RegisterWeighted(&stubMember{name: name, workers: procs}, weight)
					coord.SetExternalLoad(load)
					if i%3 == 0 {
						coord.Unregister(name)
					}
				}
				if err != nil {
					errs <- fmt.Errorf("caller %d round %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	stopBatch()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	return srv
}

// foldedOnto folds the records after base's last onto base and writes the
// result out the way the live server writes its registry.
func foldedOnto(base journal.State, recs []journal.Record) []byte {
	reg := base.Registry()
	for _, rec := range recs {
		if rec.Seq > base.LastSeq {
			journal.Fold(reg, rec)
		}
	}
	return stateBytes(journal.Snapshot(reg, 0, 0))
}

func stateBytes(st journal.State) []byte {
	st.LastSeq, st.At = 0, 0
	b, err := json.Marshal(st)
	if err != nil {
		panic(err)
	}
	return b
}

// TestJournalOrderUnderConcurrentCallers: the journal is written in the
// order the registry changed, whoever is calling. Four concurrent callers
// leave a journal the strict audit explains to the last target record —
// every rebalance re-derived from the records before it decides exactly
// the targets the records after it say — and that folds to the live
// registry, byte for byte.
func TestJournalOrderUnderConcurrentCallers(t *testing.T) {
	for _, batch := range []bool{false, true} {
		t.Run(fmt.Sprintf("batching=%v", batch), func(t *testing.T) {
			dir := t.TempDir()
			srv := churnJournaled(t, dir, journal.Options{}, batch)
			live := stateBytes(srv.JournalState(0))
			base, recs, err := journal.ReadAll(dir)
			if err != nil {
				t.Fatal(err)
			}
			d := ctrl.DiffJournal(base, recs, 16)
			if !d.OK() {
				t.Errorf("%d of %d journaled decisions unexplained over %d rebalances; first: %+v",
					len(d.Mismatches), d.Decisions, d.Scans, d.Mismatches[0])
			}
			if d.Decisions == 0 || d.Scans == 0 {
				t.Fatalf("audit exercised too little: %d decisions over %d rebalances", d.Decisions, d.Scans)
			}
			if got := foldedOnto(base, recs); !bytes.Equal(got, live) {
				t.Errorf("the journal does not fold to the live registry\n journal %s\n live    %s", got, live)
			}
		})
	}
}

// TestSnapshotCutIsAnInstant: a snapshot's state and its LastSeq are the
// same instant. Under the same concurrent traffic with a snapshot every
// few records, each retained snapshot plus the records after its LastSeq
// folds to the live registry — none has a record at or below its LastSeq
// missing from its state, none has one above it already in.
func TestSnapshotCutIsAnInstant(t *testing.T) {
	for _, batch := range []bool{false, true} {
		t.Run(fmt.Sprintf("batching=%v", batch), func(t *testing.T) {
			dir := t.TempDir()
			srv := churnJournaled(t, dir, journal.Options{SnapshotEvery: 40, Retain: 4}, batch)
			live := stateBytes(srv.JournalState(0))
			_, recs, err := journal.ReadAll(dir) // back to the oldest retained snapshot
			if err != nil {
				t.Fatal(err)
			}
			snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
			if err != nil || len(snaps) < 2 {
				t.Fatalf("%d retained snapshots (%v), want several", len(snaps), err)
			}
			for _, path := range snaps {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				payload, _, err := journal.DecodeFrame(data[8:]) // past the magic
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				var st journal.State
				if err := json.Unmarshal(payload, &st); err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				if got := foldedOnto(st, recs); !bytes.Equal(got, live) {
					t.Errorf("%s plus the records after %d does not fold to the live registry\n journal %s\n live    %s",
						filepath.Base(path), st.LastSeq, got, live)
				}
			}
			res, err := journal.Recover(dir)
			if err != nil || res.Dirty() {
				t.Fatalf("Recover: %v, notes %v", err, res.Notes)
			}
			if got := stateBytes(res.State); !bytes.Equal(got, live) {
				t.Errorf("recovery differs from the live registry\n journal %s\n live    %s", got, live)
			}
		})
	}
}
