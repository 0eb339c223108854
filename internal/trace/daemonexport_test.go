package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"procctl/internal/flight"
	"procctl/internal/journal"
)

// sampleTimeline is one epoch propagating to two clients: the daemon
// decides targets for web and bat, web applies and settles, bat applies
// but never settles (its flow finishes at the apply hop), and the
// daemon's converge event closes web's chain.
func sampleTimeline() DaemonTimeline {
	return DaemonTimeline{
		Daemon: []flight.Event{
			{Seq: 1, At: 1000, Kind: flight.KindRegister, App: "web", A: 4},
			{Seq: 2, At: 1500, Kind: flight.KindRebalance, A: 300, B: 2, Epoch: 7},
			{Seq: 3, At: 1510, Kind: flight.KindTarget, App: "web", A: 3, B: 4, Epoch: 7},
			{Seq: 4, At: 1520, Kind: flight.KindTarget, App: "bat", A: 5, B: 2, Epoch: 7},
			{Seq: 5, At: 9000, Kind: flight.KindConverge, App: "web", A: 7490, B: 2, Epoch: 7},
		},
		Clients: []ClientTimeline{
			{Name: "web", Events: []flight.Event{
				{Seq: 1, At: 2000, Kind: flight.KindApply, App: "web", A: 3, B: 4, Epoch: 7},
				{Seq: 2, At: 2500, Kind: flight.KindSettle, App: "web", A: 3, Epoch: 7},
			}},
			{Name: "bat", Events: []flight.Event{
				{Seq: 1, At: 2100, Kind: flight.KindApply, App: "bat", A: 5, B: 2, Epoch: 7},
			}},
		},
	}
}

// TestDaemonExportGolden pins the merged daemon timeline byte-for-byte.
func TestDaemonExportGolden(t *testing.T) {
	var out bytes.Buffer
	if err := WriteDaemonChrome(sampleTimeline(), &out); err != nil {
		t.Fatal(err)
	}
	checkChromeGolden(t, "daemon_small.golden", out.Bytes())
}

func TestWriteDaemonChromeFlows(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteDaemonChrome(sampleTimeline(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("export is not valid JSON:\n%s", out)
	}
	ck, err := CheckChrome(strings.NewReader(out))
	if err != nil {
		t.Fatalf("check rejected own export: %v\n%s", err, out)
	}
	// Daemon + two clients; web's chain is target → apply → settle →
	// converge, bat's is target → apply. Both start on pid 0 and finish
	// on another pid (or vice versa), so both are cross-process.
	if ck.Processes != 3 {
		t.Fatalf("processes = %d, want 3", ck.Processes)
	}
	if ck.Flows != 2 || ck.CrossProcess != 2 {
		t.Fatalf("flows = %d cross = %d, want 2 and 2\n%s", ck.Flows, ck.CrossProcess, out)
	}
	for _, want := range []string{
		`"rebalance #7"`, `"target web -\u003e 3"`, `"converge #7"`,
		`"apply 3"`, `"settle 3"`, `"epoch7:web"`, `"epoch7:bat"`, `"procctld"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %s", want)
		}
	}
	// Timestamps are normalized to the earliest event (At 1000).
	if !strings.Contains(out, `"ts":510`) {
		t.Errorf("expected normalized target timestamp 510 in\n%s", out)
	}
}

// TestCheckChromeRejects breaks each structural rule once.
func TestCheckChromeRejects(t *testing.T) {
	for _, tc := range []struct{ name, in string }{
		{"malformed JSON", `{not json`},
		{"no events", `{"traceEvents":[]}`},
		{"missing ts", `{"traceEvents":[{"name":"a","ph":"i","s":"t","pid":0,"tid":0}]}`},
		{"string pid", `{"traceEvents":[{"name":"a","ph":"i","s":"t","ts":1,"pid":"0","tid":0}]}`},
		{"missing tid", `{"traceEvents":[{"name":"a","ph":"i","s":"t","ts":1,"pid":0}]}`},
		{"slice without dur", `{"traceEvents":[{"name":"a","ph":"X","ts":1,"pid":0,"tid":0}]}`},
		{"unnamed slice", `{"traceEvents":[{"ph":"X","ts":1,"dur":2,"pid":0,"tid":0}]}`},
		{"instant scope", `{"traceEvents":[{"name":"a","ph":"i","s":"x","ts":1,"pid":0,"tid":0}]}`},
		{"flow without id", `{"traceEvents":[{"ph":"s","ts":1,"pid":0,"tid":0}]}`},
		{"dangling start", `{"traceEvents":[{"ph":"s","ts":1,"pid":0,"tid":0,"id":"x"}]}`},
		{"finish before start", `{"traceEvents":[{"ph":"f","bp":"e","ts":1,"pid":0,"tid":0,"id":"x"},` +
			`{"ph":"s","ts":2,"pid":0,"tid":0,"id":"x"}]}`},
		{"finish without bp", `{"traceEvents":[{"ph":"s","ts":1,"pid":0,"tid":0,"id":"x"},` +
			`{"ph":"f","ts":2,"pid":0,"tid":0,"id":"x"}]}`},
		{"unknown metadata", `{"traceEvents":[{"name":"color","ph":"M","ts":0,"pid":0,"tid":0}]}`},
		{"unknown phase", `{"traceEvents":[{"name":"a","ph":"B","ts":1,"pid":0,"tid":0}]}`},
	} {
		if _, err := CheckChrome(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: accepted %s", tc.name, tc.in)
		}
	}
}

// TestFlightDumpRoundTrip dumps a ring the way procctl-top does, reads
// it back the way the daemon export does, and merges it with the
// journal's records of the same run: the target both streams hold is
// drawn once, though the ring and the journal number it differently.
func TestFlightDumpRoundTrip(t *testing.T) {
	target := flight.Event{At: 30, Kind: flight.KindTarget, App: "web", A: 3, B: 4, Epoch: 2}
	ring := flight.New(8)
	ring.Append(flight.Event{At: 20, Kind: flight.KindRedial, App: "web", A: 1})
	ring.Append(target)
	var dump bytes.Buffer
	if err := flight.WriteJSONL(&dump, ring.Snapshot(0)); err != nil {
		t.Fatal(err)
	}
	fromRing, err := flight.ReadJSONL(&dump)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromRing) != 2 || fromRing[1].Seq != 1 {
		t.Fatalf("dump read back as %+v", fromRing)
	}

	dir := t.TempDir()
	jw, err := journal.Open(dir, 1, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []flight.Event{{At: 10, Kind: flight.KindRegister, App: "web", A: 4}, target} {
		if _, err := jw.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := journal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Seq == fromRing[1].Seq {
		t.Fatalf("journal records %+v: want the target numbered apart from the ring's seq %d", recs, fromRing[1].Seq)
	}

	got := MergeFlightEvents(fromRing, recs)
	var kinds []string
	for _, ev := range got {
		kinds = append(kinds, ev.Kind)
	}
	if want := "register redial target"; strings.Join(kinds, " ") != want {
		t.Fatalf("merged kinds %v, want %s: %+v", kinds, want, got)
	}
}

func TestMergeFlightEvents(t *testing.T) {
	ring := []flight.Event{
		{Seq: 9, At: 30, Kind: flight.KindTarget, App: "web", A: 3, B: 4, Epoch: 2},
		{Seq: 10, At: 40, Kind: flight.KindConverge, App: "web", A: 10, B: 1, Epoch: 2},
	}
	// Journal-derived: same target event without a ring seq, plus an
	// older record the ring already evicted.
	jrn := []flight.Event{
		{At: 10, Kind: flight.KindRegister, App: "web", A: 4},
		{At: 30, Kind: flight.KindTarget, App: "web", A: 3, B: 4, Epoch: 2},
	}
	got := MergeFlightEvents(ring, jrn)
	if len(got) != 3 {
		t.Fatalf("merged %d events, want 3 (dup dropped): %+v", len(got), got)
	}
	if got[0].At != 10 || got[1].At != 30 || got[2].At != 40 {
		t.Fatalf("not time-ordered: %+v", got)
	}
}
