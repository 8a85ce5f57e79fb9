// Package jsonscan reads the values of canonical JSON — the bytes
// encoding/json writes, with no whitespace and strings that need no
// escaping — to exactly what json.Unmarshal makes of them. It is the one
// number and string reader under the two hand-written decoders of the
// repository's canonical forms: trace events (internal/obs) and the
// manifest (internal/video).
//
// Every reader has the form f(b, i) (v, next, ok): it reads the value that
// starts at b[i], returns it with the index just past it, and reports
// whether it could. ok is false for bytes that are not a value of the
// reader's grammar, and for a value json.Unmarshal would refuse to store
// (out of the type's range), so the caller hands those bytes to
// encoding/json and lets it report them. A reader never reads past the
// value, so what follows it is the caller's to check.
package jsonscan

import (
	"math"
	"strconv"
)

// digits accumulates the run of decimal digits that starts b into m, which
// wraps past 19 digits where no caller uses it, and returns m with the
// run's length.
func digits(b []byte, m uint64) (uint64, int) {
	for n, c := range b {
		if c-'0' > 9 {
			return m, n
		}
		m = m*10 + uint64(c-'0')
	}
	return m, len(b)
}

// unsigned reads 0|[1-9][0-9]* of at most 19 digits, every one of which
// fits a uint64.
func unsigned(b []byte, i int) (uint64, int, bool) {
	u, n := digits(b[i:], 0)
	return u, i + n, uint(n-1) < 19 && (n == 1 || b[i] != '0')
}

// Int64 reads -?(0|[1-9][0-9]*), a JSON integer, that json.Unmarshal
// stores in an int64 unchanged: one in the int64 range.
func Int64(b []byte, i int) (int64, int, bool) {
	if i < len(b) && b[i] == '-' {
		u, i, ok := unsigned(b, i+1)
		return -int64(u), i, ok && u <= 1<<63
	}
	u, i, ok := unsigned(b, i)
	return int64(u), i, ok && u <= math.MaxInt64
}

// Int is Int64 for an int: a value the platform's int cannot hold is
// json's range error to report.
func Int(b []byte, i int) (int, int, bool) {
	v, i, ok := Int64(b, i)
	return int(v), i, ok && int64(int(v)) == v
}

// Uint32 reads an unsigned JSON integer up to math.MaxUint32. A sign is
// json's to refuse, even on zero.
func Uint32(b []byte, i int) (uint32, int, bool) {
	u, i, ok := unsigned(b, i)
	return uint32(u), i, ok && u <= math.MaxUint32
}

// pow10 holds the powers of ten Float divides by, all exact in a float64.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18}

// Float reads a JSON number — -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
// — to strconv.ParseFloat's value of it, which is what json.Unmarshal
// stores. Without an exponent, a mantissa of at most 19 digits accumulated
// on the way is exact as an integer; up to 2^53 it is exact as a float64
// too, and so is the power of ten it is divided by, and one correctly
// rounded division yields ParseFloat's bits. Anything else is handed to
// ParseFloat. A value out of float64 range is json's error.
func Float(b []byte, i int) (float64, int, bool) {
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	m, n := digits(b[i:], 0)
	if n == 0 || (n > 1 && b[i] == '0') {
		return 0, i + n, false
	}
	end, frac := i+n, 0
	if end < len(b) && b[end] == '.' {
		if m, frac = digits(b[end+1:], m); frac == 0 {
			return 0, end + 1, false
		}
		end += 1 + frac
	}
	if n+frac <= 19 && m <= 1<<53 && (end == len(b) || b[end]|0x20 != 'e') {
		f := float64(m) / pow10[frac]
		if i > start {
			f = -f
		}
		return f, end, true
	}
	return parseFloat(b, start, end)
}

// parseFloat reads the exponent, if any, after the mantissa b[i:end] and
// hands the number to strconv.ParseFloat.
func parseFloat(b []byte, i, end int) (float64, int, bool) {
	if end < len(b) && b[end]|0x20 == 'e' {
		end++
		if end < len(b) && (b[end] == '+' || b[end] == '-') {
			end++
		}
		_, e := digits(b[end:], 0)
		if e == 0 {
			return 0, end, false
		}
		end += e
	}
	f, err := strconv.ParseFloat(string(b[i:end]), 64)
	return f, end, err == nil
}

// Str reads a quoted string of printable ASCII without escapes and returns
// its contents, an alias into b.
func Str(b []byte, i int) ([]byte, int, bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	i++
	for start := i; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return b[start:i], i + 1, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, i, false
		}
	}
	return nil, i, false
}
