package flight

// The module's one JSON-lines codec, shared by the flight dumps and the
// journal's records (AppendJSON, DecodeJSON), the control plane's wire
// and the sim trace. encoding/json is the reference for what the bytes
// mean: the hand paths cover a plain subset without allocating, and hand
// the rest to encoding/json.

import (
	"encoding/json"
	"strconv"
)

// plainByte reports whether json writes and reads ch inside a string as
// the byte itself: a plain string is printable ASCII other than
// " \ < > &.
func plainByte(ch byte) bool {
	return ch >= 0x20 && ch <= 0x7e && ch != '"' && ch != '\\' && ch != '<' && ch != '>' && ch != '&'
}

// AppendString appends s as a JSON string, byte-identical to
// json.Marshal(s). A plain string is copied without allocating.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			b, _ := json.Marshal(s) // a Go string always marshals
			return append(dst, b...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// Intern returns the member of set that b spells, so that decoding a
// word of a closed vocabulary allocates no string, or else b as a new
// string.
func Intern(b []byte, set []string) string {
	for _, s := range set {
		if string(b) == s {
			return s
		}
	}
	return string(b)
}

// Cursor scans one plain line: a flat object without whitespace whose
// keys are plain strings. Every method reports false on input outside
// the subset; the line is then declined whole, and its caller runs
// json.Unmarshal on it instead.
type Cursor struct {
	b []byte
	i int
}

// Object walks the flat object {"key":value,...} that is the whole of
// line; value scans, with c's methods, the value of the key it is given.
func (c *Cursor) Object(line []byte, value func(key []byte) bool) bool {
	c.b, c.i = line, 0
	if !c.lit("{") {
		return false
	}
	for {
		key, ok := c.Str()
		if !ok || !c.lit(":") || !value(key) {
			return false
		}
		if !c.lit(",") {
			return c.lit("}") && c.i == len(c.b)
		}
	}
}

// lit consumes s if the rest of the line starts with it.
func (c *Cursor) lit(s string) bool {
	if len(c.b)-c.i < len(s) || string(c.b[c.i:c.i+len(s)]) != s {
		return false
	}
	c.i += len(s)
	return true
}

func (c *Cursor) digits() int {
	from := c.i
	for c.i < len(c.b) && c.b[c.i]-'0' <= 9 {
		c.i++
	}
	return c.i - from
}

// Str scans a quoted plain string and returns the bytes between the
// quotes.
func (c *Cursor) Str() ([]byte, bool) {
	if !c.lit(`"`) {
		return nil, false
	}
	from := c.i
	for c.i < len(c.b) && plainByte(c.b[c.i]) {
		c.i++
	}
	return c.b[from:c.i], c.lit(`"`)
}

// number scans the integer part of a JSON number: an optional minus,
// then digits without a leading zero.
func (c *Cursor) number() bool {
	c.lit("-")
	n := c.digits()
	return n == 1 || n > 1 && c.b[c.i-n] != '0'
}

// Uint64 scans an unsigned JSON integer of up to 19 digits, which
// always fits a uint64; a longer one is declined.
func (c *Cursor) Uint64(dst *uint64) bool {
	from := c.i
	if c.i < len(c.b) && c.b[c.i] == '-' || !c.number() || c.i-from > 19 {
		return false
	}
	*dst = 0
	for _, ch := range c.b[from:c.i] {
		*dst = *dst*10 + uint64(ch-'0')
	}
	return true
}

// int64 scans a JSON integer that fits bits bits.
func (c *Cursor) int64(dst *int64, bits int) bool {
	neg := c.lit("-")
	var v uint64
	ok := c.Uint64(&v) && (v < 1<<(bits-1) || neg && v == 1<<(bits-1))
	if *dst = int64(v); neg {
		*dst = -*dst
	}
	return ok
}

// Int scans a JSON integer that fits an int.
func (c *Cursor) Int(dst *int) bool {
	var v int64
	ok := c.int64(&v, strconv.IntSize)
	*dst = int(v)
	return ok
}

// Float scans a number by JSON's grammar and converts it the way
// encoding/json does.
func (c *Cursor) Float(dst *float64) bool {
	from := c.i
	if !c.number() {
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

// Bool scans true or false.
func (c *Cursor) Bool(dst *bool) bool {
	*dst = c.lit("true")
	return *dst || c.lit("false")
}
