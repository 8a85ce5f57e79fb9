package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"
)

// EventKind labels one session event. The set mirrors the lifecycle the
// paper's §4 analysis reasons about: what was fetched, what was skipped,
// what the viewer actually saw, and how the connection behaved.
type EventKind string

// Session event kinds.
const (
	EvDecide    EventKind = "decide"    // scheme emitted a fetch list (N = items)
	EvFetch     EventKind = "fetch"     // chunk/tile transfer completed (N = bytes)
	EvSkip      EventKind = "skip"      // frame rendered with >= 1 primary-skipped tile
	EvMask      EventKind = "mask"      // frame rendered >= 1 tile from the masking stream
	EvBlank     EventKind = "blank"     // frame rendered >= 1 fully blank tile
	EvStall     EventKind = "stall"     // playback entered a rebuffering stall
	EvStartup   EventKind = "startup"   // first frame rendered (N = delay in ms)
	EvResume    EventKind = "resume"    // stall ended (N = stall length in ms)
	EvReconnect EventKind = "reconnect" // link re-established (N = restored dedup entries)
	EvOutage    EventKind = "outage"    // link lost; reconnector engaged
	EvLinkDead  EventKind = "linkdead"  // reconnect budget exhausted or server goodbye
	EvCorrupt   EventKind = "corrupt"   // tile failed its checksum or is not in the manifest; dropped (N = bytes)
	EvBusy      EventKind = "busy"      // server fast-rejected the handshake (admission control)
	EvSession   EventKind = "session"   // trace header: identifies the session's video and cohort
	EvQuality   EventKind = "quality"   // frame rendered (N = viewport quality in centi-dB)
	EvShed      EventKind = "shed"      // server shed queued items from an install (N = payload bytes)
)

// TraceSchemaVersion is the JSONL trace format version stamped into every
// event ("v"). Ingest consumers reject events carrying any other version;
// see docs/OBSERVABILITY.md for the versioning policy.
const TraceSchemaVersion = 1

// Event is one entry of a session trace. At is session-relative time.
type Event struct {
	// V is the trace schema version; Add stamps TraceSchemaVersion.
	V     int           `json:"v"`
	At    time.Duration `json:"-"`
	AtMS  float64       `json:"t_ms"` // At in milliseconds, for the JSONL form
	Kind  EventKind     `json:"ev"`
	Chunk int           `json:"chunk,omitempty"`
	Tile  int           `json:"tile,omitempty"`
	// N carries the event's magnitude: bytes for EvFetch, list length for
	// EvDecide, milliseconds for EvStartup/EvResume, centi-dB for
	// EvQuality, etc.
	N int64 `json:"n,omitempty"`
	// Video and Cohort identify the session on its EvSession header line
	// (empty on every other event). Cohort is the fleet-rollup aggregation
	// key, conventionally "<trace class>:<network class>".
	Video  string `json:"video,omitempty"`
	Cohort string `json:"cohort,omitempty"`
}

// SessionEvent builds the EvSession trace header identifying a session's
// video and rollup cohort. It is always the first event recorded.
func SessionEvent(videoID, cohort string) Event {
	return Event{Kind: EvSession, Video: videoID, Cohort: cohort}
}

// defaultTraceCap bounds a session trace when NewTrace is given 0.
const defaultTraceCap = 8192

// Trace is a bounded per-session event log. When full, the oldest events
// are overwritten (a ring), and Dropped counts the overwritten entries so
// truncation is visible rather than silent. All methods are nil-safe, so a
// session without tracing pays one branch per event.
type Trace struct {
	mu      sync.Mutex
	events  []Event
	head    int // index of the oldest event once the ring has wrapped
	full    bool
	dropped int64
}

// NewTrace creates a trace holding at most capacity events (0 = defaultTraceCap).
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = defaultTraceCap
	}
	return &Trace{events: make([]Event, 0, capacity)}
}

// Add appends one event, evicting the oldest when the trace is full. Nil-safe.
func (t *Trace) Add(e Event) {
	if t == nil {
		return
	}
	e.V = TraceSchemaVersion
	e.AtMS = float64(e.At) / float64(time.Millisecond)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) < cap(t.events) && !t.full {
		t.events = append(t.events, e)
		return
	}
	t.full = true
	t.events[t.head] = e
	t.head = (t.head + 1) % len(t.events)
	t.dropped++
}

// Record is shorthand for Add with the common fields.
func (t *Trace) Record(at time.Duration, kind EventKind, n int64) {
	t.Add(Event{At: at, Kind: kind, N: n})
}

// Len returns the number of retained events. Nil-safe (0).
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns how many events were evicted by the ring bound. Nil-safe (0).
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns the retained events in chronological order. Nil-safe (nil).
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[t.head:]...)
	out = append(out, t.events[:t.head]...)
	return out
}

// WriteJSONL dumps the trace as one JSON object per line. Nil-safe (no-op).
func (t *Trace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range t.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes the trace as JSONL to path+".tmp" and renames it into
// place, so a reader tailing the directory never sees a torn file. On
// error the temporary file is removed. Nil-safe (writes an empty file).
func (t *Trace) WriteFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = t.WriteJSONL(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
