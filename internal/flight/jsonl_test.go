package flight

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestEncoderPinnedToStdlib is the contract that makes the journal
// greppable and the zero-alloc encoder trustworthy: every event must
// marshal byte-identically to encoding/json — every kind, the omitempty
// edge cases, and the strings encoding/json escapes — and a dump must be
// the lines a json.Encoder writes. The one string escape every hand
// encoder shares is held to json.Marshal on its own too: every byte
// alone and inside a plain name, the line and paragraph separators, and
// invalid UTF-8.
func TestEncoderPinnedToStdlib(t *testing.T) {
	strs := []string{"", "web", "a\u2028b", "\u2029", "\xff", "a\xc3", "\xed\xa0\x80", "ünïcode\x80"}
	for c := 0; c <= 0xff; c++ {
		strs = append(strs, string([]byte{byte(c)}), "app"+string([]byte{byte(c)})+"1")
	}
	for _, s := range strs {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Errorf("AppendString(%q) = %s, json.Marshal %s", s, got[1:], want)
		}
	}

	evs := []Event{
		{Seq: 1, At: 1000, Kind: KindRegister, App: "web", A: 4, B: 2},
		{Seq: 2, At: 1001, Kind: KindRebalance, A: 37, B: 1},
		{Seq: 3, At: 1002, Kind: KindTarget, App: "web", A: 8},
		{Seq: 4, At: 1003, Kind: KindSetLoad, A: 3},
		{Seq: 5, At: 1004, Kind: KindSetCapacity, A: 16},
		{Seq: 6, At: 1005, Kind: KindLeaseExpiry, App: "web", B: 1},
		{Seq: 7, At: 1006, Kind: KindUnregister, App: "batch"},
		{Seq: 8, At: 1007, Kind: KindRestart, A: 2, B: 128},
		{Seq: 9, At: 0, Kind: KindTarget, App: "a-b.c_1", A: -1, B: -2},
		{Seq: 10, At: -5, Kind: "future_kind"},
		{Seq: 11, At: 1008, Kind: KindTarget, App: "web", A: 6, B: 8, Epoch: 3},
		{Seq: 12, At: 1009, Kind: KindRebalance, A: 41, B: 2, Epoch: 4},
		{Seq: 11, At: 1, Kind: `quote"back\slash`, App: "<esc&py>"},
		{Seq: 12, At: 1, Kind: "tab\tnewline\n", App: "ünïcode"},
		{Seq: 13, At: 1, Kind: "\x00ctrl", App: string([]byte{0xff, 0xfe})},
		{Seq: 14, At: 1, Kind: KindApply, App: "line\u2028sep", Epoch: 1 << 63},
	}
	var std bytes.Buffer
	enc := json.NewEncoder(&std)
	for i := range evs {
		want, err := json.Marshal(&evs[i])
		if err != nil {
			t.Fatalf("stdlib marshal: %v", err)
		}
		if got := AppendJSON(nil, &evs[i]); string(got) != string(want) {
			t.Errorf("encoder diverges from encoding/json\n got %s\nwant %s", got, want)
		}
		if err := enc.Encode(&evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	var dump bytes.Buffer
	if err := WriteJSONL(&dump, evs); err != nil {
		t.Fatal(err)
	}
	if dump.String() != std.String() {
		t.Errorf("dump diverges from json.Encoder:\n got %s\nwant %s", dump.String(), std.String())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	evs := []Event{
		{Seq: 1, At: 10, Kind: KindTarget, App: "web", A: 3, B: 4, Epoch: 2},
		{Seq: 2, At: 20, Kind: KindSettle, App: "web", A: 3, Epoch: 2},
	}
	var b strings.Builder
	if err := WriteJSONL(&b, evs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2: %q", len(lines), b.String())
	}
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("line %d not valid JSON: %q", i, line)
		}
	}
	got, err := ReadJSONL(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(evs) || got[0] != evs[0] || got[1] != evs[1] {
		t.Errorf("round trip changed events: %+v != %+v", got, evs)
	}
}

func TestReadJSONL(t *testing.T) {
	in := `{"seq":1,"at":10,"kind":"target","app":"web","a":3,"b":4,"epoch":2}

{"seq":2,"at":20,"kind":"settle","app":"web","a":3,"epoch":2}
`
	evs, err := ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Epoch != 2 || evs[1].Kind != KindSettle {
		t.Fatalf("bad decode: %+v", evs)
	}
	for _, bad := range []string{"{broken\n", `{"seq":1,"at":2}` + "\n", "{\"seq\":1,\n\"kind\":\"target\"}\n"} {
		if _, err := ReadJSONL(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadJSONL(%q) accepted a line that is not one event", bad)
		}
	}
	// Lines the scanner declines get encoding/json's reading: an escaped
	// name, whitespace, a later writer's key, a CRLF ending. Seq 0 is a
	// recorder's first event.
	in = `{"seq":0,"at":1,"kind":"target","app":"q\u003ca"}` + "\n" +
		` { "seq": 1, "kind": "apply", "a": 2 } ` + "\n" +
		`{"seq":2,"kind":"settle","extra":[1]}` + "\r\n"
	evs, err = ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{{At: 1, Kind: KindTarget, App: "q<a"}, {Seq: 1, Kind: KindApply, A: 2}, {Seq: 2, Kind: KindSettle}}
	if len(evs) != len(want) || evs[0] != want[0] || evs[1] != want[1] || evs[2] != want[2] {
		t.Errorf("fallback decode: got %+v, want %+v", evs, want)
	}
}

// TestDecodeJSONInternsKinds: a line as AppendJSON writes it costs at
// most its app name's string.
func TestDecodeJSONInternsKinds(t *testing.T) {
	for _, c := range []struct {
		ev     Event
		allocs float64
	}{
		{Event{Seq: 1, At: -5, Kind: KindRebalance, A: 37, B: 2, Epoch: 9}, 0},
		{Event{Seq: 1 << 63, At: 1, Kind: KindTarget, App: "web", A: 8, B: -1}, 1},
		{Event{Seq: 2, Kind: "future_kind"}, 1},
	} {
		line := AppendJSON(nil, &c.ev)
		var got Event
		if n := testing.AllocsPerRun(100, func() { got, _ = DecodeJSON(line) }); n != c.allocs {
			t.Errorf("DecodeJSON(%s): %v allocations, want %v", line, n, c.allocs)
		}
		if got != c.ev {
			t.Errorf("DecodeJSON(%s) = %+v, want %+v", line, got, c.ev)
		}
	}
}
