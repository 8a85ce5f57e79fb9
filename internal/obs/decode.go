package obs

import (
	"encoding/binary"
	"encoding/json"
	"strconv"
)

// UnmarshalEvent decodes one JSONL trace line into ev. The contract is
// json.Unmarshal's into a zero Event: same error nil-ness, same event.
//
// A line that is exactly one canonical-form event (DecodeEvent) is decoded
// by hand, without reflection or a heap event, and known event kinds come
// back as the package constants. Any other byte sequence, valid JSON or
// not, is handed to json.Unmarshal, at once if it does not end in '}'. The
// choice is made from the input alone; there is nothing to configure.
func UnmarshalEvent(line []byte, ev *Event) error {
	if n := len(line); n > 0 && line[n-1] == '}' && DecodeEvent(line, ev) == n {
		return nil
	}
	*ev = Event{}
	return json.Unmarshal(line, ev)
}

// DecodeEvent decodes the canonical-form event at the start of b into ev
// and returns the length of its object, or 0 if b does not start with one;
// on 0 ev holds garbage. Bytes after the object are not read, so a caller
// can decode in place in a buffer of many lines.
//
// The canonical form is the one WriteJSONL emits: a single object with no
// whitespace, its keys in the writer's order — v, t_ms, ev, then whichever
// of chunk, tile, n, video, cohort the event carries, in Event's
// declaration order — strings of printable ASCII without escapes, plain
// decimal integers, and t_ms as digits[.digits]. Each value decodes to what
// json.Unmarshal makes of it.
func DecodeEvent(b []byte, ev *Event) int {
	*ev = Event{}
	var kind, video, cohort []byte
	var ok bool
	i := 0
	if !keyV.is(keyAt(b, i, '{')) {
		return 0
	}
	if ev.V, i, ok = scanPlainInt(b, i+keyV.n); !ok || !keyTMS.is(keyAt(b, i, ',')) {
		return 0
	}
	if ev.AtMS, i, ok = scanFloat(b, i+keyTMS.n); !ok || !keyEv.is(keyAt(b, i, ',')) {
		return 0
	}
	if kind, i, ok = scanString(b, i+keyEv.n); !ok {
		return 0
	}
	// The optional keys, in order: each is looked for only where the one
	// before it would have ended.
	w := keyAt(b, i, ',')
	if keyChunk.is(w) {
		if ev.Chunk, i, ok = scanPlainInt(b, i+keyChunk.n); !ok {
			return 0
		}
		w = keyAt(b, i, ',')
	}
	if keyTile.is(w) {
		if ev.Tile, i, ok = scanPlainInt(b, i+keyTile.n); !ok {
			return 0
		}
		w = keyAt(b, i, ',')
	}
	if keyN.is(w) {
		if ev.N, i, ok = scanInt(b, i+keyN.n); !ok {
			return 0
		}
		w = keyAt(b, i, ',')
	}
	if keyVideo.is(w) {
		if video, i, ok = scanString(b, i+keyVideo.n); !ok {
			return 0
		}
		w = keyAt(b, i, ',')
	}
	if keyCohort.is(w) {
		if cohort, i, ok = scanString(b, i+keyCohort.n); !ok {
			return 0
		}
	}
	if i >= len(b) || b[i] != '}' {
		return 0
	}
	ev.Kind = internKind(kind)
	if len(video) > 0 {
		ev.Video = string(video)
	}
	if len(cohort) > 0 {
		ev.Cohort = string(cohort)
	}
	return i + 1
}

// A key is one of the schema's keys as the canonical form spells it after
// the quote that opens it — its name and the `":` that closes it, t_ms":
// for one — held as the little-endian word an 8-byte load of those bytes
// reads. Every key fits one word, so matching one is a mask and a compare.
type key struct {
	w, mask uint64
	n       int // the bytes from the separator before the key to its value
}

func newKey(name string) key {
	s := name + `":`
	k := key{n: 2 + len(s)}
	for i := 0; i < len(s); i++ {
		k.w |= uint64(s[i]) << (8 * i)
		k.mask |= 0xff << (8 * i)
	}
	return k
}

// The keys, in the writer's order.
var (
	keyV      = newKey("v")
	keyTMS    = newKey("t_ms")
	keyEv     = newKey("ev")
	keyChunk  = newKey("chunk")
	keyTile   = newKey("tile")
	keyN      = newKey("n")
	keyVideo  = newKey("video")
	keyCohort = newKey("cohort")
)

// is reports whether w, the word keyAt loaded, starts with k.
func (k *key) is(w uint64) bool {
	return w&k.mask == k.w
}

// keyAt returns the word after sep and the quote that open a key at b[i:],
// zero-padded past the end of b, or 0 if b does not continue with them. A
// key holds no zero byte, so no key matches past the end of b or where no
// key opens.
func keyAt(b []byte, i int, sep byte) uint64 {
	if i+1 >= len(b) || b[i] != sep || b[i+1] != '"' {
		return 0
	}
	return word(b, i+2)
}

// word loads b[i:i+8] as a little-endian word, with zeros past the end of
// b: near the end, it loads the last eight bytes and shifts off those
// before i. No event fits in eight bytes, so a shorter b reads 0.
func word(b []byte, i int) uint64 {
	switch {
	case i+8 <= len(b):
		return binary.LittleEndian.Uint64(b[i:])
	case len(b) >= 8:
		return binary.LittleEndian.Uint64(b[len(b)-8:]) >> (8 * (i + 8 - len(b)))
	}
	return 0
}

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

// scanInt reads -?(0|[1-9][0-9]{0,17}) at b[i:] — every such value fits an
// int64 — and returns it with the index after it. A longer run of digits
// stops at the 19th, where the caller finds no delimiter.
func scanInt(b []byte, i int) (int64, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	run := b[i:]
	if len(run) > 18 {
		run = run[:18]
	}
	m, n := digits(run, 0)
	if n == 0 || (run[0] == '0' && n > 1) {
		return 0, i + n, false
	}
	v := int64(m)
	if neg {
		v = -v
	}
	return v, i + n, true
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
	m, n := digits(b[i:], 0)
	if n == 0 || (b[i] == '0' && n > 1) {
		return 0, i + n, false
	}
	end, frac := i+n, 0
	if end < len(b) && b[end] == '.' {
		if m, frac = digits(b[end+1:], m); frac == 0 {
			return 0, end + 1, false
		}
		end += 1 + frac
	}
	if n+frac <= 15 {
		return float64(m) / pow10[frac], end, true
	}
	f, err := strconv.ParseFloat(string(b[i:end]), 64)
	return f, end, err == nil
}

// scanString reads a quoted string of printable ASCII without escapes at
// b[i:] and returns its contents (aliasing b) with the index after it.
func scanString(b []byte, i int) ([]byte, int, bool) {
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
