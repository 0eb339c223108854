package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"procctl/internal/flight"
)

// foldRecord draws one record of a stream meant to reach every arm of
// Fold and every way of missing one: all eight kinds, kinds nobody
// knows, registers of present members, and unregisters, expiries and
// targets for members that are not there (the name space is twice the
// fleet that usually fills it).
func foldRecord(rng *rand.Rand, seq uint64, m int) Record {
	r := Record{Seq: seq, At: int64(1000 + 3*seq), App: fmt.Sprintf("app%03d", rng.Intn(2*m))}
	switch rng.Intn(16) {
	case 0, 1, 2, 3:
		r.Kind, r.A, r.B = KindRegister, int64(rng.Intn(9)), int64(rng.Intn(4)-1)
	case 4:
		r.Kind, r.A = KindUnregister, int64(rng.Intn(9))
	case 5:
		r.Kind, r.A = KindLeaseExpiry, 1
	case 6:
		r.Kind, r.App, r.A, r.B, r.Epoch = KindRebalance, "", int64(rng.Intn(100)), int64(rng.Intn(m)), seq/4
	case 7:
		r.Kind, r.App, r.A = KindSetLoad, "", int64(rng.Intn(5))
	case 8:
		r.Kind, r.App, r.A = KindSetCapacity, "", int64(1+rng.Intn(64))
	case 9:
		r.Kind, r.App, r.A, r.B = KindRestart, "", int64(rng.Intn(m)), int64(rng.Intn(100))
	case 10:
		r.Kind = []string{"mystery", flight.KindApply, flight.KindConverge, flight.KindSnapshot}[rng.Intn(4)]
	default:
		r.Kind, r.A, r.B, r.Epoch = KindTarget, int64(rng.Intn(16)), int64(rng.Intn(16)), seq/4
	}
	return r
}

// TestFoldMatchesReference holds recovery's fold — Fold into a
// core.Registry, written out by Snapshot — against the State.Apply it
// replaced (reference_test.go), over seeded record streams, some on top
// of a snapshot: after every record the two states must be the bytes a
// snapshot would store, not merely deeply equal.
func TestFoldMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 320; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(24)
		var want State
		seq := uint64(1)
		if seed%4 == 3 { // start from a snapshot's state, not from genesis
			for ; seq <= uint64(2*m); seq++ {
				want.Apply(foldRecord(rng, seq, m))
			}
		}
		reg := want.Registry()
		for end := seq + 250; seq < end; seq++ {
			r := foldRecord(rng, seq, m)
			want.Apply(r)
			Fold(reg, r)
			g, err := json.Marshal(Snapshot(reg, r.Seq, r.At))
			if err != nil {
				t.Fatal(err)
			}
			w, err := json.Marshal(&want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("seed %d: after record %d (%s %q a=%d b=%d) the fold and the reference differ\n got  %s\n want %s",
					seed, seq, r.Kind, r.App, r.A, r.B, g, w)
			}
		}
	}
}

// TestRecordIsFlightEvent: a journal record is a flight event, so the
// bytes on disk are the event's JSON, and the payloads old daemons wrote
// — v1 without an epoch, v2 with one, a kind this build has never heard
// of — decode to the same values they always did and encode back to the
// same bytes.
func TestRecordIsFlightEvent(t *testing.T) {
	for _, c := range []struct {
		payload string
		ev      flight.Event
	}{
		{`{"seq":1,"at":1000,"kind":"setcapacity","a":16}`,
			flight.Event{Seq: 1, At: 1000, Kind: flight.KindSetCapacity, A: 16}},
		{`{"seq":2,"at":1001,"kind":"register","app":"fft","a":8,"b":2}`,
			flight.Event{Seq: 2, At: 1001, Kind: flight.KindRegister, App: "fft", A: 8, B: 2}},
		{`{"seq":7,"at":1006,"kind":"target","app":"fft","a":6,"b":8,"epoch":3}`,
			flight.Event{Seq: 7, At: 1006, Kind: flight.KindTarget, App: "fft", A: 6, B: 8, Epoch: 3}},
		{`{"seq":8,"at":-5,"kind":"lease_expiry","app":"q\u003ca","a":1}`,
			flight.Event{Seq: 8, At: -5, Kind: flight.KindLeaseExpiry, App: "q<a", A: 1}},
		{`{"seq":9,"at":0,"kind":"from-the-future","b":-4}`,
			flight.Event{Seq: 9, Kind: "from-the-future", B: -4}},
	} {
		got, err := DecodeRecord([]byte(c.payload))
		if err != nil {
			t.Fatalf("DecodeRecord(%s): %v", c.payload, err)
		}
		if got != c.ev {
			t.Errorf("DecodeRecord(%s) = %+v, want %+v", c.payload, got, c.ev)
		}
		std, err := json.Marshal(c.ev)
		if err != nil {
			t.Fatal(err)
		}
		if enc := flight.AppendJSON(nil, &c.ev); string(enc) != c.payload || string(std) != c.payload {
			t.Errorf("event %+v\n AppendJSON   %s\n json.Marshal %s\n on disk      %s", c.ev, enc, std, c.payload)
		}
	}
	for _, kind := range []string{flight.KindRedial, flight.KindReconnect, flight.KindSnapshot,
		flight.KindApply, flight.KindSettle, flight.KindConverge, "", "mystery"} {
		if Durable(kind) {
			t.Errorf("Durable(%q): an observation-only kind would be journaled", kind)
		}
	}
	for _, kind := range []string{KindRegister, KindUnregister, KindLeaseExpiry, KindTarget,
		KindRebalance, KindSetLoad, KindSetCapacity, KindRestart} {
		if !Durable(kind) {
			t.Errorf("Durable(%q) = false: a registry transition would be lost", kind)
		}
	}
}
