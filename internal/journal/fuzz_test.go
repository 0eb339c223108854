package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"procctl/internal/flight"
)

// referenceDecode is the record decoder by encoding/json alone:
// json.Unmarshal plus the kind and sequence checks.
func referenceDecode(payload []byte) (Record, bool) {
	var r Record
	if json.Unmarshal(payload, &r) != nil || r.Kind == "" || r.Seq == 0 {
		return Record{}, false
	}
	return r, true
}

// FuzzDecodeRecord hammers the payload decoder with arbitrary bytes.
// Invariants: never panic; accept exactly what referenceDecode accepts,
// as the same record; and anything that decodes must re-encode to a
// payload that decodes back to the same record (the canonical encoding
// is a fixed point, even when the fuzzer found a non-canonical spelling
// of the same record).
func FuzzDecodeRecord(f *testing.F) {
	for _, r := range sampleRecords() {
		f.Add(flight.AppendJSON(nil, &r))
	}
	for _, s := range []string{
		`{}`,
		`{"seq":18446744073709551615,"at":-9223372036854775808,"kind":"k"}`,
		`{"seq":18446744073709551616,"kind":"k"}`,
		`{"seq":1,"at":9223372036854775808,"kind":"k"}`,
		`{"seq":1,"kind":"register","app":"<&>😀"}`,
		`[1,2,3]`,
		`{"seq":3,"at":7,"kind":"target","app":"web","a":2,"v3":[1,{"x":null}]}`, // a later writer's field
		`{"seq":1,"at":-0,"kind":"setload","a":-0}`,
		`{"seq":2,"at":-1234,"kind":"register","app":"w","a":4,"b":1}`,
		`{"seq":01,"kind":"target"}`,
		`{"seq":1,"at":-01,"kind":"target"}`,
		`{ "seq": 1, "kind": "target" }`,
		"{\"seq\":1,\"kind\":\"target\"}\r\n",
		`{"SEQ":1,"Kind":"target","App":"w"}`,
		`{"seq":1,"kind":"setload","kind":"target","app":"a","app":"b","seq":2}`,
		`{"seq":1,"kind":"register","app":"q\u003ca\"b\\c"}`,
		`{"seq":1,"kind":"target","app":null,"a":1.0}`,
	} {
		f.Add([]byte(s))
	}
	f.Add([]byte{0, 1, 2})
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := DecodeRecord(payload)
		if want, ok := referenceDecode(payload); (err == nil) != ok || rec != want {
			t.Fatalf("DecodeRecord(%q) = %+v, %v; encoding/json: %+v, accepted %v", payload, rec, err, want, ok)
		}
		if err != nil {
			return
		}
		again, err := DecodeRecord(flight.AppendJSON(nil, &rec))
		if err != nil {
			t.Fatalf("canonical re-encode of %+v does not decode: %v", rec, err)
		}
		if again != rec {
			t.Fatalf("re-encode not a fixed point: %+v -> %+v", rec, again)
		}
	})
}

// FuzzFsck writes arbitrary bytes as a segment file and runs the full
// recover/repair cycle. Invariants: Recover never panics or errors on
// arbitrary segment content; Repair then re-Recover yields a clean
// journal with the identical state (repair is idempotent and lossless
// with respect to the valid prefix).
func FuzzFsck(f *testing.F) {
	// Seeds: a pristine two-record segment, the same torn and
	// bit-flipped, junk, and an empty file.
	pristine := appendFrame([]byte(segMagic), flight.AppendJSON(nil, &Record{Seq: 1, At: 5, Kind: KindRegister, App: "a", A: 2, B: 1}))
	pristine = appendFrame(pristine, flight.AppendJSON(nil, &Record{Seq: 2, At: 6, Kind: KindTarget, App: "a", A: 4}))
	f.Add(pristine)
	f.Add(pristine[:len(pristine)-5])
	flipped := append([]byte(nil), pristine...)
	flipped[magicLen+frameHdr+2] ^= 0x10
	f.Add(flipped)
	f.Add([]byte("not a journal at all"))
	f.Add([]byte{})
	gap := appendFrame([]byte(segMagic), flight.AppendJSON(nil, &Record{Seq: 1, At: 5, Kind: KindSetLoad, A: 1}))
	gap = appendFrame(gap, flight.AppendJSON(nil, &Record{Seq: 7, At: 6, Kind: KindSetLoad, A: 2}))
	f.Add(gap)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Skip()
		}
		res, err := Recover(dir)
		if err != nil {
			t.Fatalf("Recover errored on arbitrary bytes: %v", err)
		}
		if err := Repair(dir, res); err != nil {
			t.Fatalf("Repair: %v", err)
		}
		res2, err := Recover(dir)
		if err != nil {
			t.Fatalf("Recover after Repair: %v", err)
		}
		if res2.Dirty() {
			t.Fatalf("dirty after Repair: %v", res2.Notes)
		}
		if !reflect.DeepEqual(res2.State, res.State) || res2.NextSeq != res.NextSeq {
			t.Fatalf("Repair changed recovered state:\n before %+v\n after  %+v", res.State, res2.State)
		}
	})
}
