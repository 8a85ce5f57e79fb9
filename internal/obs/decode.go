package obs

import (
	"encoding/binary"
	"encoding/json"

	"dragonfly/internal/jsonscan"
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
// declaration order — strings of printable ASCII without escapes, integers
// in the int64 range, and t_ms as any JSON number. Each value is read by
// internal/jsonscan to what json.Unmarshal makes of it.
func DecodeEvent(b []byte, ev *Event) int {
	*ev = Event{}
	var kind, video, cohort []byte
	var ok bool
	i := 0
	if !keyV.is(keyAt(b, i, '{')) {
		return 0
	}
	if ev.V, i, ok = jsonscan.Int(b, i+keyV.n); !ok || !keyTMS.is(keyAt(b, i, ',')) {
		return 0
	}
	if ev.AtMS, i, ok = jsonscan.Float(b, i+keyTMS.n); !ok || !keyEv.is(keyAt(b, i, ',')) {
		return 0
	}
	if kind, i, ok = jsonscan.Str(b, i+keyEv.n); !ok {
		return 0
	}
	// The optional keys, in order: each is looked for only where the one
	// before it would have ended.
	w := keyAt(b, i, ',')
	if keyChunk.is(w) {
		if ev.Chunk, i, ok = jsonscan.Int(b, i+keyChunk.n); !ok {
			return 0
		}
		w = keyAt(b, i, ',')
	}
	if keyTile.is(w) {
		if ev.Tile, i, ok = jsonscan.Int(b, i+keyTile.n); !ok {
			return 0
		}
		w = keyAt(b, i, ',')
	}
	if keyN.is(w) {
		if ev.N, i, ok = jsonscan.Int64(b, i+keyN.n); !ok {
			return 0
		}
		w = keyAt(b, i, ',')
	}
	if keyVideo.is(w) {
		if video, i, ok = jsonscan.Str(b, i+keyVideo.n); !ok {
			return 0
		}
		w = keyAt(b, i, ',')
	}
	if keyCohort.is(w) {
		if cohort, i, ok = jsonscan.Str(b, i+keyCohort.n); !ok {
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
