package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// AppendJSON appends ev encoded exactly as encoding/json marshals an Event
// (compact, fixed field order, zero-valued optional fields omitted),
// without allocating. Pinned to json.Marshal by test.
func AppendJSON(buf []byte, ev *Event) []byte {
	buf = append(buf, `{"seq":`...)
	buf = strconv.AppendUint(buf, ev.Seq, 10)
	buf = append(buf, `,"at":`...)
	buf = strconv.AppendInt(buf, ev.At, 10)
	buf = append(buf, `,"kind":`...)
	buf = appendJSONString(buf, ev.Kind)
	if ev.App != "" {
		buf = append(buf, `,"app":`...)
		buf = appendJSONString(buf, ev.App)
	}
	if ev.A != 0 {
		buf = append(buf, `,"a":`...)
		buf = strconv.AppendInt(buf, ev.A, 10)
	}
	if ev.B != 0 {
		buf = append(buf, `,"b":`...)
		buf = strconv.AppendInt(buf, ev.B, 10)
	}
	if ev.Epoch != 0 {
		buf = append(buf, `,"epoch":`...)
		buf = strconv.AppendUint(buf, ev.Epoch, 10)
	}
	return append(buf, '}')
}

// appendJSONString appends s as a JSON string the way encoding/json
// escapes it: control characters, quote, backslash, and the HTML-unsafe
// set (<, >, &) as \u00xx. App names and kinds are ASCII identifiers in
// practice; non-ASCII falls back to the (allocating) stdlib path for
// correctness.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			// Rare path: defer to encoding/json for exact escaping.
			b, err := json.Marshal(s)
			if err != nil {
				// A Go string always marshals; keep the signature total.
				return append(append(buf, '"'), '"')
			}
			return append(buf, b...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// WriteJSONL writes evs one JSON object per line: the dump format
// `procctl-top -events -json` and `-hold-events` write and
// procctl-trace's daemon export reads.
func WriteJSONL(w io.Writer, evs []Event) error {
	var buf []byte
	for i := range evs {
		buf = append(AppendJSON(buf[:0], &evs[i]), '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL decodes a dump. Blank lines are skipped; anything that is
// not an event fails the read (dumps are machine-written).
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	dec := json.NewDecoder(r)
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("flight jsonl: event %d: %w", len(out)+1, err)
		}
		out = append(out, ev)
	}
}
