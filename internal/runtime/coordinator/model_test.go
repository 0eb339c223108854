package coordinator

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"procctl/internal/core"
	"procctl/internal/journal"
)

// modelProgram runs one seeded random program of control-plane calls
// against a Coordinator with in-process stub members and inline
// rebalancing, mirrored call for call on a core.Registry of the test's
// own with one Decide wherever the coordinator rebalances. The
// coordinator decides on a Registry too, so its membership, order and
// last targets are not held against the mirror's — that would compare the
// state machine with itself. What is checked after every step is the
// shell around it: every member's stub last received the target the
// mirror decided (pushes delivered to the current stub of a re-registered
// name), one decision per call that should make one, no target above its
// member's process count and no more handed out than there is.
//
// With a journal directory the program is recorded: after every step the
// records appended so far must fold to the mirror's state, and at the
// program's end what recovery folds out of them must be, byte for byte,
// the snapshot the live server would write.
func modelProgram(t *testing.T, seed int64, steps int, journalDir string) {
	rng := rand.New(rand.NewSource(seed))
	capacity := 1 + rng.Intn(24)
	c := New(capacity)
	reg := core.NewRegistry[string](capacity)
	var tail *journalTail
	if journalDir != "" {
		w, err := journal.Open(journalDir, 1, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		c.SetJournal(w)
		tail = newJournalTail(t, journalDir)
	}
	names := make([]string, 2+rng.Intn(10))
	for i := range names {
		names[i] = fmt.Sprintf("m%02d", i)
	}
	stubs := make(map[string]*fakeMember) // the stub each registered name currently answers with

	for step := 0; step < steps; step++ {
		name := names[rng.Intn(len(names))]
		what := ""
		switch op := rng.Intn(10); {
		case op < 3: // a new member, or a present one again with another stub, count and weight
			workers, weight := rng.Intn(9), rng.Intn(5)
			what = fmt.Sprintf("RegisterWeighted(%s procs %d, weight %d)", name, workers, weight)
			stubs[name] = &fakeMember{name: name, workers: workers}
			c.RegisterWeighted(stubs[name], weight)
			reg.Register(name, workers, max(weight, 1), 0)
		case op < 5: // known or not
			what = fmt.Sprintf("Unregister(%s)", name)
			c.Unregister(name)
			reg.Remove(name)
			delete(stubs, name)
		case op < 6:
			load := rng.Intn(8) - 1
			what = fmt.Sprintf("SetExternalLoad(%d)", load)
			c.SetExternalLoad(load)
			reg.External = max(load, 0)
		default:
			what = "Rebalance()"
			c.Rebalance()
		}
		reg.Decide(0, nil)

		sum, floor := 0, 0
		for _, m := range reg.Members() {
			if got := stubs[m.Key].got(); got != m.Target {
				t.Fatalf("seed %d step %d: after %s: %s has target %d in the registry, its stub received %d",
					seed, step, what, m.Key, m.Target, got)
			}
			procs := stubs[m.Key].Workers()
			if m.Target > procs {
				t.Fatalf("seed %d step %d: after %s: %s target %d exceeds its %d processes", seed, step, what, m.Key, m.Target, procs)
			}
			sum += m.Target
			if procs > 0 {
				floor++
			}
		}
		if got := c.Rebalances(); got != reg.Decisions {
			t.Fatalf("seed %d step %d: after %s: %d rebalances, %d registry decisions", seed, step, what, got, reg.Decisions)
		}
		if limit := max(core.Available(reg.Capacity, reg.External), floor); sum > limit {
			t.Fatalf("seed %d step %d: after %s: targets sum to %d, over max(available, members with processes) = %d", seed, step, what, sum, limit)
		}
		if tail != nil {
			got, want := tail.state(t), journal.Snapshot(reg, 0, 0)
			want.Capacity = 0 // the journal learns a capacity only from a setcapacity record, which Server.Boot writes
			if g, w := unstamped(got), unstamped(want); !bytes.Equal(g, w) {
				t.Fatalf("seed %d step %d: after %s: the journal so far does not fold to the mirror\n journal %s\n mirror  %s", seed, step, what, g, w)
			}
		}
	}

	if journalDir != "" {
		requireJournalFoldsToLive(t, c, journalDir, fmt.Sprintf("seed %d", seed))
	}
}

// journalTail folds a journal's first segment as it grows.
type journalTail struct {
	f   *os.File
	reg *core.Registry[string]
}

func newJournalTail(t *testing.T, dir string) *journalTail {
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != 1 {
		t.Fatalf("segments %v, want the one just opened", segs)
	}
	f, err := os.Open(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if _, err := f.Seek(8, io.SeekStart); err != nil { // past the magic
		t.Fatal(err)
	}
	return &journalTail{f: f, reg: core.NewRegistry[string](0)}
}

// state folds the records the segment has gained since the last call (an
// append is in the kernel when it returns) and returns the registry they
// have folded to so far.
func (jt *journalTail) state(t *testing.T) journal.State {
	t.Helper()
	data, err := io.ReadAll(jt.f)
	if err != nil {
		t.Fatal(err)
	}
	for len(data) > 0 {
		payload, n, err := journal.DecodeFrame(data)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := journal.DecodeRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		journal.Fold(jt.reg, rec)
		data = data[n:]
	}
	return journal.Snapshot(jt.reg, 0, 0)
}

// unstamped marshals a state without the registration stamps, which the
// mirror does not keep.
func unstamped(st journal.State) []byte {
	for i := range st.Members {
		st.Members[i].LastSeen = 0
	}
	b, err := json.Marshal(st)
	if err != nil {
		panic(err)
	}
	return b
}

// requireJournalFoldsToLive requires what recovery folds out of dir to
// be, byte for byte, the snapshot the live server would write.
func requireJournalFoldsToLive(t *testing.T, c *Coordinator, dir, what string) {
	t.Helper()
	res, err := journal.Recover(dir)
	if err != nil || res.Dirty() {
		t.Fatalf("%s: Recover: %v, notes %v", what, err, res.Notes)
	}
	// The journal knows a capacity only from a setcapacity record (the
	// daemon writes one at boot) or a snapshot. Both sides stamp a member
	// with the instant of its registration.
	recovered, live := res.State, NewServer(c, nil).JournalState(0)
	if recovered.Capacity == 0 {
		live.Capacity = 0
	}
	recovered.LastSeq, recovered.At = 0, 0
	got, err := json.Marshal(recovered)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(live)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: the recovered journal and the live snapshot differ\n journal %s\n live    %s", what, got, want)
	}
}

// TestCoordinatorMatchesRegistryModel is the model test for the
// single-caller shell: 10⁶ steps (10⁵ under the race detector, a
// smoke under -short) of seeded programs, no divergence.
func TestCoordinatorMatchesRegistryModel(t *testing.T) {
	programs := 5000
	switch {
	case testing.Short():
		programs = 50
	case raceDetector:
		programs = 500
	}
	for seed := int64(0); seed < int64(programs); seed++ {
		modelProgram(t, seed, 200, "")
	}
}

// TestJournaledCoordinatorMatchesRegistryModel is the same with a
// journal attached: every program ends with journal.Recover's state
// equal to Server.JournalState by marshalled bytes.
func TestJournaledCoordinatorMatchesRegistryModel(t *testing.T) {
	programs := 150
	if testing.Short() || raceDetector {
		programs = 30
	}
	for seed := int64(0); seed < int64(programs); seed++ {
		modelProgram(t, 1_000_000+seed, 150, t.TempDir())
	}
}
