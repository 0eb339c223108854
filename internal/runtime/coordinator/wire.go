package coordinator

// The wire codec: the only place that frames, encodes and decodes the
// protocol. A message is one JSON object on one newline-terminated
// line, and encoding/json is the reference for what the bytes mean. The
// messages a fleet exchanges all day — register, poll, unregister and
// their replies — lie in a plain subset that a hand-written scanner and
// strconv appends handle without allocating:
//
//   - no whitespace, exact lower-case keys, each value of its field's type;
//   - strings of printable ASCII other than " \ < > & (json escapes those);
//   - integers as 1–9 plain decimal digits, no sign;
//   - true / false, and for spin_pct any JSON number strconv.ParseFloat
//     takes (encoded in 'f' form, which is what json emits for values
//     in [1e-6, 1e21) and for 0);
//   - requests naming one of the eight ops, replies without status,
//     metrics, events or converge.
//
// The scanner declines anything else and json.Unmarshal / json.Marshal
// run on the same line, so the bytes on the wire are exactly what
// json.Encoder wrote and json.Decoder accepted before this file
// existed (wire_test.go fuzzes both directions against encoding/json).

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"
)

// maxRequestLine bounds one request on the server side, newline
// included; a client that sends more is answered once and dropped.
// Replies are not bounded: the daemon is trusted, and a 10k-member
// status reply is megabytes.
const maxRequestLine = 64 << 10

var errLineTooLong = errors.New("request line exceeds " + strconv.Itoa(maxRequestLine) + " bytes")

// wireOps is the closed op set: what the scanner accepts as an op and
// what the server holds per-op metric handles for.
var wireOps = [...]string{OpRegister, OpPoll, OpUnregister, OpSetLoad, OpStatus, OpMetrics, OpEvents, OpConverge}

// wireOp returns the op constant b spells, so that decoding an op
// allocates no string.
func wireOp(b []byte) (string, bool) {
	for _, op := range wireOps {
		if string(b) == op {
			return op, true
		}
	}
	return "", false
}

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

// plainByte reports whether json writes and reads ch inside a string as
// the byte itself.
func plainByte(ch byte) bool {
	return ch >= 0x20 && ch <= 0x7e && ch != '"' && ch != '\\' && ch != '<' && ch != '>' && ch != '&'
}

func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			return false
		}
	}
	return true
}

// cursor scans one line of the plain subset. Every method reports false
// on input outside the subset, and the line is then declined whole.
type cursor struct {
	b []byte
	i int
}

// lit consumes s if the rest of the line starts with it.
func (c *cursor) lit(s string) bool {
	if len(c.b)-c.i < len(s) || string(c.b[c.i:c.i+len(s)]) != s {
		return false
	}
	c.i += len(s)
	return true
}

func (c *cursor) digits() int {
	from := c.i
	for c.i < len(c.b) && c.b[c.i]-'0' <= 9 {
		c.i++
	}
	return c.i - from
}

// str scans a quoted plain string and returns the bytes between the
// quotes.
func (c *cursor) str() ([]byte, bool) {
	if !c.lit(`"`) {
		return nil, false
	}
	from := c.i
	for c.i < len(c.b) && plainByte(c.b[c.i]) {
		c.i++
	}
	return c.b[from:c.i], c.lit(`"`)
}

// uint scans 1–9 decimal digits: enough for every count and epoch a
// fleet sends, and within an int on any platform.
func (c *cursor) uint(dst *uint64) bool {
	from := c.i
	if n := c.digits(); n == 0 || n > 9 || n > 1 && c.b[from] == '0' {
		return false
	}
	*dst = 0
	for _, d := range c.b[from:c.i] {
		*dst = *dst*10 + uint64(d-'0')
	}
	return true
}

func (c *cursor) int(dst *int) bool {
	var v uint64
	ok := c.uint(&v)
	*dst = int(v)
	return ok
}

// float scans a number by JSON's grammar and converts it the way
// encoding/json does.
func (c *cursor) float(dst *float64) bool {
	from := c.i
	c.lit("-")
	if n := c.digits(); n == 0 || n > 1 && c.b[c.i-n] == '0' {
		return false
	}
	if c.lit(".") && c.digits() == 0 {
		return false
	}
	if c.lit("e") || c.lit("E") {
		if !c.lit("+") {
			c.lit("-")
		}
		if c.digits() == 0 {
			return false
		}
	}
	v, err := strconv.ParseFloat(string(c.b[from:c.i]), 64)
	*dst = v
	return err == nil
}

func (c *cursor) bool(dst *bool) bool {
	*dst = c.lit("true")
	return *dst || c.lit("false")
}

// object walks {"key":value,...} to the end of the line; value scans
// the value of the key it is given.
func (c *cursor) object(value func(key []byte) bool) bool {
	if !c.lit("{") {
		return false
	}
	for {
		key, ok := c.str()
		if !ok || !c.lit(":") || !value(key) {
			return false
		}
		if !c.lit(",") {
			return c.lit("}") && c.i == len(c.b)
		}
	}
}

// scanRequest decodes a plain request line into req, which must be
// zero, or declines it. name makes the app name's string, so that the
// server can hand back the one it already holds for a registered
// member; spin is where req.SpinPct points when the line carries one.
func scanRequest(line []byte, req *Request, spin *float64, name func([]byte) string) bool {
	c := cursor{b: line}
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "op":
			v, ok := c.str()
			if ok {
				req.Op, ok = wireOp(v)
			}
			return ok
		case "app":
			v, ok := c.str()
			if ok {
				req.App = name(v)
			}
			return ok
		case "procs":
			return c.int(&req.Procs)
		case "weight":
			return c.int(&req.Weight)
		case "load":
			return c.int(&req.Load)
		case "spin_pct":
			req.SpinPct = spin
			return c.float(spin)
		case "limit":
			return c.int(&req.Limit)
		case "applied_epoch":
			return c.uint(&req.Applied)
		case "since":
			return c.uint(&req.Since)
		case "epoch":
			return c.uint(&req.Epoch)
		}
		return false
	})
}

// scanResponse decodes a plain reply line into resp, which must be
// zero, or declines it.
func scanResponse(line []byte, resp *Response) bool {
	c := cursor{b: line}
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "ok":
			return c.bool(&resp.OK)
		case "error":
			v, ok := c.str()
			resp.Error = string(v)
			return ok
		case "target":
			return c.int(&resp.Target)
		case "epoch":
			return c.uint(&resp.Epoch)
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

// appendField appends key and v unless v is zero (json's omitempty).
func appendField(dst []byte, key string, v uint64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendUint(append(dst, key...), v, 10)
}

func appendString(dst []byte, key, v string) []byte {
	if v == "" {
		return dst
	}
	return append(append(append(dst, key...), v...), '"')
}

// appendRequest appends req's line to dst: by hand when every field is
// plain, through json.Marshal (on a copy, so that req need not escape)
// when not.
func appendRequest(dst []byte, req *Request) ([]byte, error) {
	spin := 0.0
	if req.SpinPct != nil {
		spin = math.Abs(*req.SpinPct)
	}
	if !plainString(req.Op) || !plainString(req.App) || req.Procs|req.Weight|req.Load|req.Limit < 0 ||
		spin != 0 && !(spin >= 1e-6 && spin < 1e21) {
		return appendJSON(dst, *req)
	}
	dst = append(append(append(dst, `{"op":"`...), req.Op...), '"')
	dst = appendString(dst, `,"app":"`, req.App)
	dst = appendField(dst, `,"procs":`, uint64(req.Procs))
	dst = appendField(dst, `,"weight":`, uint64(req.Weight))
	dst = appendField(dst, `,"load":`, uint64(req.Load))
	if req.SpinPct != nil {
		dst = strconv.AppendFloat(append(dst, `,"spin_pct":`...), *req.SpinPct, 'f', -1, 64)
	}
	dst = appendField(dst, `,"limit":`, uint64(req.Limit))
	dst = appendField(dst, `,"applied_epoch":`, req.Applied)
	dst = appendField(dst, `,"since":`, req.Since)
	dst = appendField(dst, `,"epoch":`, req.Epoch)
	return append(dst, '}', '\n'), nil
}

// appendResponse is appendRequest for a reply.
func appendResponse(dst []byte, resp *Response) ([]byte, error) {
	if resp.Status != nil || resp.Metrics != nil || len(resp.Events) > 0 || len(resp.Converge) > 0 ||
		!plainString(resp.Error) || resp.Target < 0 {
		return appendJSON(dst, *resp)
	}
	if resp.OK {
		dst = append(dst, `{"ok":true`...)
	} else {
		dst = append(dst, `{"ok":false`...)
	}
	dst = appendString(dst, `,"error":"`, resp.Error)
	dst = appendField(dst, `,"target":`, uint64(resp.Target))
	dst = appendField(dst, `,"epoch":`, resp.Epoch)
	return append(dst, '}', '\n'), nil
}
