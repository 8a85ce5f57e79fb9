package obs

import (
	"encoding/json"
	"strconv"
)

// UnmarshalEvent decodes one JSONL trace line into ev. The contract is
// json.Unmarshal's into a zero Event: same error nil-ness, same event.
//
// Lines in the canonical form — the one WriteJSONL emits: a single object,
// no whitespace, the schema's lower-case keys at most once each, plain
// printable-ASCII strings without escapes, plain decimal integers, t_ms as
// digits[.digits] — are decoded by hand, without reflection or a heap
// event, and known event kinds come back as the package constants. Any
// other byte sequence, valid JSON or not, is handed to json.Unmarshal. The
// choice is made from the input alone; there is nothing to configure.
func UnmarshalEvent(line []byte, ev *Event) error {
	if decodeCanonical(line, ev) {
		return nil
	}
	*ev = Event{}
	return json.Unmarshal(line, ev)
}

// Bits of decodeCanonical's seen-keys set.
const (
	keyV = 1 << iota
	keyTMS
	keyEv
	keyChunk
	keyTile
	keyN
	keyVideo
	keyCohort
)

// decodeCanonical decodes a canonical-form line into ev and reports whether
// it did. On false ev holds garbage: the caller resets it.
func decodeCanonical(b []byte, ev *Event) bool {
	*ev = Event{}
	n := len(b)
	if n < 2 || b[0] != '{' || b[n-1] != '}' {
		return false
	}
	seen := 0
	for i := 1; ; {
		if b[i] != '"' {
			return false
		}
		i++
		k := i
		for i < n && b[i] != '"' {
			i++
		}
		if i+2 >= n || b[i+1] != ':' {
			return false
		}
		key := b[k:i]
		i += 2

		var bit int
		var ok bool
		switch string(key) {
		case "v":
			bit = keyV
			ev.V, i, ok = scanPlainInt(b, i)
		case "chunk":
			bit = keyChunk
			ev.Chunk, i, ok = scanPlainInt(b, i)
		case "tile":
			bit = keyTile
			ev.Tile, i, ok = scanPlainInt(b, i)
		case "n":
			bit = keyN
			ev.N, i, ok = scanInt(b, i)
		case "t_ms":
			bit = keyTMS
			ev.AtMS, i, ok = scanFloat(b, i)
		case "ev":
			var s []byte
			bit = keyEv
			s, i, ok = scanString(b, i)
			ev.Kind = internKind(s)
		case "video":
			var s []byte
			bit = keyVideo
			s, i, ok = scanString(b, i)
			ev.Video = string(s)
		case "cohort":
			var s []byte
			bit = keyCohort
			s, i, ok = scanString(b, i)
			ev.Cohort = string(s)
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit

		// Every scanner stops inside b, at worst on the closing brace.
		switch {
		case b[i] == ',' && i+1 < n:
			i++
		case b[i] == '}' && i == n-1:
			return true
		default:
			return false
		}
	}
}

// scanInt reads -?(0|[1-9][0-9]{0,17}) at b[i:] — every such value fits an
// int64 — and returns it with the index after it. A longer run of digits
// stops at the 19th, where the caller finds no delimiter.
func scanInt(b []byte, i int) (int64, int, bool) {
	neg := b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for i-start < 18 && b[i]-'0' <= 9 {
		v = v*10 + int64(b[i]-'0')
		i++
	}
	if i == start || (b[start] == '0' && i-start > 1) {
		return 0, i, false
	}
	if neg {
		v = -v
	}
	return v, i, true
}

// scanPlainInt is scanInt for an int field: a value the platform's int
// cannot hold is json's range error to report, not ours.
func scanPlainInt(b []byte, i int) (int, int, bool) {
	v, i, ok := scanInt(b, i)
	return int(v), i, ok && int64(int(v)) == v
}

// pow10 holds the powers of ten scanFloat divides by, all exact in a float64.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14}

// scanFloat reads digits[.digits] at b[i:] — no sign, no exponent, which the
// writer never emits and the caller finds no delimiter after — and returns
// ParseFloat's value of it with the index after it. At most 15 digits, any
// t_ms under eleven days, are exact as an integer mantissa over an exact
// power of ten, so one correctly rounded division yields ParseFloat's bits.
func scanFloat(b []byte, i int) (float64, int, bool) {
	start := i
	var m uint64 // wraps past 19 digits, where it is not used
	for ; b[i]-'0' <= 9; i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	if i == start || (b[start] == '0' && i-start > 1) {
		return 0, i, false
	}
	digits, frac := i-start, 0
	if b[i] == '.' {
		point := i
		for i++; b[i]-'0' <= 9; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
		if frac = i - point - 1; frac == 0 {
			return 0, i, false
		}
		digits += frac
	}
	if digits <= 15 {
		return float64(m) / pow10[frac], i, true
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	return f, i, err == nil
}

// scanString reads a quoted string of printable ASCII without escapes at
// b[i:] and returns its contents (aliasing b) with the index after it.
func scanString(b []byte, i int) ([]byte, int, bool) {
	if b[i] != '"' {
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

// internKind maps an event kind's bytes to the package constant, so folding
// a known kind allocates nothing; an unknown kind gets its own string.
func internKind(s []byte) EventKind {
	switch string(s) {
	case string(EvDecide):
		return EvDecide
	case string(EvFetch):
		return EvFetch
	case string(EvSkip):
		return EvSkip
	case string(EvMask):
		return EvMask
	case string(EvBlank):
		return EvBlank
	case string(EvStall):
		return EvStall
	case string(EvStartup):
		return EvStartup
	case string(EvResume):
		return EvResume
	case string(EvReconnect):
		return EvReconnect
	case string(EvOutage):
		return EvOutage
	case string(EvLinkDead):
		return EvLinkDead
	case string(EvCorrupt):
		return EvCorrupt
	case string(EvBusy):
		return EvBusy
	case string(EvSession):
		return EvSession
	case string(EvQuality):
		return EvQuality
	case string(EvShed):
		return EvShed
	}
	return EventKind(s)
}
