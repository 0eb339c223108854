package flight

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// AppendJSON appends ev encoded exactly as encoding/json marshals an Event
// (compact, fixed field order, zero-valued optional fields omitted),
// without allocating. Pinned to json.Marshal by test.
func AppendJSON(buf []byte, ev *Event) []byte {
	buf = strconv.AppendUint(append(buf, `{"seq":`...), ev.Seq, 10)
	buf = strconv.AppendInt(append(buf, `,"at":`...), ev.At, 10)
	buf = AppendString(append(buf, `,"kind":`...), ev.Kind)
	if ev.App != "" {
		buf = AppendString(append(buf, `,"app":`...), ev.App)
	}
	if ev.A != 0 {
		buf = strconv.AppendInt(append(buf, `,"a":`...), ev.A, 10)
	}
	if ev.B != 0 {
		buf = strconv.AppendInt(append(buf, `,"b":`...), ev.B, 10)
	}
	if ev.Epoch != 0 {
		buf = strconv.AppendUint(append(buf, `,"epoch":`...), ev.Epoch, 10)
	}
	return append(buf, '}')
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

// kinds is the closed set a decoded kind is interned from.
var kinds = [...]string{KindRegister, KindUnregister, KindLeaseExpiry, KindTarget, KindRebalance, KindRedial,
	KindReconnect, KindSetLoad, KindSetCapacity, KindRestart, KindSnapshot, KindApply, KindSettle, KindConverge}

// DecodeJSON decodes one event line, the inverse of AppendJSON, and
// rejects an event without a kind. A line as AppendJSON writes it costs
// at most the app name's string: a known kind is one of the Kind
// constants. Any other line gets json.Unmarshal's verdict.
func DecodeJSON(line []byte) (Event, error) {
	var ev Event
	var c Cursor
	plain := c.Object(line, func(key []byte) bool {
		switch string(key) {
		case "seq":
			return c.Uint64(&ev.Seq)
		case "at":
			return c.int64(&ev.At, 64)
		case "kind":
			v, ok := c.Str()
			ev.Kind = Intern(v, kinds[:])
			return ok
		case "app":
			v, ok := c.Str()
			ev.App = string(v)
			return ok
		case "a":
			return c.int64(&ev.A, 64)
		case "b":
			return c.int64(&ev.B, 64)
		case "epoch":
			return c.Uint64(&ev.Epoch)
		}
		return false
	})
	if !plain {
		var std Event // not ev: unmarshalling into it moves it to the heap
		if err := json.Unmarshal(line, &std); err != nil {
			return Event{}, err
		}
		ev = std
	}
	if ev.Kind == "" {
		return Event{}, errors.New("event has no kind")
	}
	return ev, nil
}

// ReadJSONL decodes a dump: one event per line, as WriteJSONL writes
// them, each by DecodeJSON. Blank lines are skipped; anything that is
// not an event fails the read (dumps are machine-written).
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		ev, err := DecodeJSON(sc.Bytes())
		if err != nil {
			return nil, fmt.Errorf("flight jsonl: line %d: %w", n, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("flight jsonl: %w", err)
	}
	return out, nil
}
