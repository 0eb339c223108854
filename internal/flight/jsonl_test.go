package flight

import (
	"encoding/json"
	"strings"
	"testing"
)

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
	if _, err := ReadJSONL(strings.NewReader("{broken\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
}
