package flight

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSONL writes evs one JSON object per line: the dump format
// `procctl-top -events -json` and `-hold-events` write and
// procctl-trace's daemon export reads.
func WriteJSONL(w io.Writer, evs []Event) error {
	enc := json.NewEncoder(w)
	for _, ev := range evs {
		if err := enc.Encode(ev); err != nil {
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
