package coordinator

// The wire codec: the only place that frames, encodes and decodes the
// protocol. A message is one JSON object on one newline-terminated
// line, and encoding/json is the reference for what the bytes mean. The
// messages a fleet exchanges all day — register, poll, unregister and
// their replies — are plain lines of the module's one JSON-lines codec
// (internal/flight/codec.go) and cost no allocation. spin_pct is written
// in 'f' form, which is what json emits for values in [1e-6, 1e21) and
// for 0; other values, and replies with a status, metrics, events or
// converge, are json.Marshal's. So the bytes on the wire are exactly
// what json.Encoder wrote and json.Decoder accepted before this file
// existed (wire_test.go fuzzes both directions against encoding/json).

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"

	"procctl/internal/flight"
)

// maxRequestLine bounds one request on the server side, newline
// included; a client that sends more is answered once and dropped.
// Replies are not bounded: the daemon is trusted, and a 10k-member
// status reply is megabytes.
const maxRequestLine = 64 << 10

var errLineTooLong = errors.New("request line exceeds " + strconv.Itoa(maxRequestLine) + " bytes")

// wireOps is the closed op set: what the scanner interns an op from and
// what the server holds per-op metric handles for.
var wireOps = [...]string{OpRegister, OpPoll, OpUnregister, OpSetLoad, OpStatus, OpMetrics, OpEvents, OpConverge}

// lineReader frames a connection into lines, reusing one buffer that
// grows to the longest line seen and never past max (0 = no bound).
type lineReader struct {
	r          io.Reader
	max        int
	buf        []byte
	start, end int // buf[start:end] is read but not yet returned
}

// readLine returns the next line without its newline. The bytes alias
// the reader's buffer and are valid until the next call. A final line
// the peer closed without terminating is returned before io.EOF.
func (lr *lineReader) readLine() ([]byte, error) {
	from := lr.start // bytes before from hold no newline
	for {
		if i := bytes.IndexByte(lr.buf[from:lr.end], '\n'); i >= 0 {
			line := lr.buf[lr.start : from+i]
			lr.start = from + i + 1
			return line, nil
		}
		if lr.start > 0 {
			lr.end = copy(lr.buf, lr.buf[lr.start:lr.end])
			lr.start = 0
		}
		from = lr.end
		if lr.end == len(lr.buf) {
			size := max(2*len(lr.buf), 512)
			if lr.max > 0 && size > lr.max {
				if size = lr.max; len(lr.buf) == size {
					return nil, errLineTooLong
				}
			}
			lr.buf = append(make([]byte, 0, size), lr.buf...)[:size]
		}
		n, err := lr.r.Read(lr.buf[lr.end:])
		lr.end += n
		if n == 0 && err != nil {
			if err == io.EOF && lr.end > 0 {
				line := lr.buf[:lr.end]
				lr.end = 0
				return line, nil
			}
			return nil, err
		}
	}
}

// scanRequest decodes a plain request line into req, which must be
// zero, or declines it. name makes the app name's string, so that the
// server can hand back the one it already holds for a registered
// member; spin is where req.SpinPct points when the line carries one.
func scanRequest(line []byte, req *Request, spin *float64, name func([]byte) string) bool {
	var c flight.Cursor
	return c.Object(line, func(key []byte) bool {
		switch string(key) {
		case "op":
			v, ok := c.Str()
			req.Op = flight.Intern(v, wireOps[:])
			return ok
		case "app":
			v, ok := c.Str()
			if ok {
				req.App = name(v)
			}
			return ok
		case "procs":
			return c.Int(&req.Procs)
		case "weight":
			return c.Int(&req.Weight)
		case "load":
			return c.Int(&req.Load)
		case "spin_pct":
			req.SpinPct = spin
			return c.Float(spin)
		case "limit":
			return c.Int(&req.Limit)
		case "applied_epoch":
			return c.Uint64(&req.Applied)
		case "since":
			return c.Uint64(&req.Since)
		case "epoch":
			return c.Uint64(&req.Epoch)
		}
		return false
	})
}

// scanResponse decodes a plain reply line into resp, which must be
// zero, or declines it.
func scanResponse(line []byte, resp *Response) bool {
	var c flight.Cursor
	return c.Object(line, func(key []byte) bool {
		switch string(key) {
		case "ok":
			return c.Bool(&resp.OK)
		case "error":
			v, ok := c.Str()
			resp.Error = string(v)
			return ok
		case "target":
			return c.Int(&resp.Target)
		case "epoch":
			return c.Uint64(&resp.Epoch)
		}
		return false
	})
}

// decodeRequest decodes one request line into req, with json.Unmarshal's
// verdict on every line the scanner declines.
func decodeRequest(line []byte, req *Request, spin *float64, name func([]byte) string) error {
	*req = Request{}
	if scanRequest(line, req, spin, name) {
		return nil
	}
	*req = Request{}
	return json.Unmarshal(line, req)
}

// decodeResponse is decodeRequest for a reply line. The fallback
// decodes into a copy so that the caller's resp can stay on its stack.
func decodeResponse(line []byte, resp *Response) error {
	*resp = Response{}
	if scanResponse(line, resp) {
		return nil
	}
	var r Response
	err := json.Unmarshal(line, &r)
	*resp = r
	return err
}

// appendJSON appends what json.Encoder writes for v.
func appendJSON(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(append(dst, b...), '\n'), err
}

// appendInt appends key and v unless v is zero (json's omitempty).
func appendInt(dst []byte, key string, v int) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), int64(v), 10)
}

func appendUint(dst []byte, key string, v uint64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendUint(append(dst, key...), v, 10)
}

// appendRequest appends req's line to dst: by hand unless SpinPct is a
// value json writes in exponent form, through json.Marshal (on a copy,
// so that req need not escape) then.
func appendRequest(dst []byte, req *Request) ([]byte, error) {
	if req.SpinPct != nil {
		if spin := math.Abs(*req.SpinPct); spin != 0 && !(spin >= 1e-6 && spin < 1e21) {
			return appendJSON(dst, *req)
		}
	}
	dst = flight.AppendString(append(dst, `{"op":`...), req.Op)
	if req.App != "" {
		dst = flight.AppendString(append(dst, `,"app":`...), req.App)
	}
	dst = appendInt(dst, `,"procs":`, req.Procs)
	dst = appendInt(dst, `,"weight":`, req.Weight)
	dst = appendInt(dst, `,"load":`, req.Load)
	if req.SpinPct != nil {
		dst = strconv.AppendFloat(append(dst, `,"spin_pct":`...), *req.SpinPct, 'f', -1, 64)
	}
	dst = appendInt(dst, `,"limit":`, req.Limit)
	dst = appendUint(dst, `,"applied_epoch":`, req.Applied)
	dst = appendUint(dst, `,"since":`, req.Since)
	dst = appendUint(dst, `,"epoch":`, req.Epoch)
	return append(dst, '}', '\n'), nil
}

// appendResponse is appendRequest for a reply, by hand unless it
// carries a status, metrics, events or converge.
func appendResponse(dst []byte, resp *Response) ([]byte, error) {
	if resp.Status != nil || resp.Metrics != nil || len(resp.Events) > 0 || len(resp.Converge) > 0 {
		return appendJSON(dst, *resp)
	}
	dst = strconv.AppendBool(append(dst, `{"ok":`...), resp.OK)
	if resp.Error != "" {
		dst = flight.AppendString(append(dst, `,"error":`...), resp.Error)
	}
	dst = appendInt(dst, `,"target":`, resp.Target)
	dst = appendUint(dst, `,"epoch":`, resp.Epoch)
	return append(dst, '}', '\n'), nil
}
