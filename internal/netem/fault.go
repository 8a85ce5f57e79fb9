package netem

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"time"
)

// FaultKind enumerates the injectable network faults: the outages and
// disconnects real cellular traces contain but pure bandwidth shaping
// cannot reproduce (paper §4.5 uses Mahimahi the same way).
type FaultKind uint8

const (
	// faultBlackout zeroes the link bandwidth for Duration.
	faultBlackout FaultKind = iota
	// FaultDisconnect hard-closes the live connection at At.
	FaultDisconnect
	// faultLatencySpike adds ExtraLatency to writes during Duration.
	faultLatencySpike
	// FaultBitFlip corrupts one random bit of the first write at or after
	// At — the in-flight corruption the wire CRC must catch. One-shot.
	FaultBitFlip
	// FaultTruncate drops the second half of the first write at or after At
	// while reporting full success, desynchronizing the stream. One-shot.
	FaultTruncate
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case faultBlackout:
		return "blackout"
	case FaultDisconnect:
		return "disconnect"
	case faultLatencySpike:
		return "spike"
	case FaultBitFlip:
		return "bitflip"
	case FaultTruncate:
		return "truncate"
	}
	return fmt.Sprintf("faultkind(%d)", uint8(k))
}

// parseFaultKind parses the CSV spelling of a fault kind.
func parseFaultKind(s string) (FaultKind, error) {
	switch s {
	case "blackout":
		return faultBlackout, nil
	case "disconnect":
		return FaultDisconnect, nil
	case "spike":
		return faultLatencySpike, nil
	case "bitflip":
		return FaultBitFlip, nil
	case "truncate":
		return FaultTruncate, nil
	}
	return 0, fmt.Errorf("netem: unknown fault kind %q", s)
}

// FaultEvent is one scheduled fault on the link timeline.
type FaultEvent struct {
	At           time.Duration // offset from the link epoch
	Kind         FaultKind
	Duration     time.Duration // blackout/spike window length
	ExtraLatency time.Duration // spike only: added per write
}

// FaultSchedule is a replayable fault script: the same schedule run against
// every scheme makes fault-tolerance results comparable.
type FaultSchedule struct {
	Events []FaultEvent
}

// Disconnects counts the hard-disconnect events in the schedule.
func (fs *FaultSchedule) Disconnects() int {
	n := 0
	for _, e := range fs.Events {
		if e.Kind == FaultDisconnect {
			n++
		}
	}
	return n
}

// ReadFaultCSV parses a fault schedule. The format (EXPERIMENTS.md) is
//
//	at_s,kind,duration_s,extra_latency_ms
//	1.5,disconnect,0,0
//	4.0,blackout,2.0,0
//	8.2,spike,1.0,300
//
// with an optional header row; kind is any name parseFaultKind accepts:
// disconnect, blackout, spike, bitflip or truncate.
func ReadFaultCSV(r io.Reader) (*FaultSchedule, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	fs := &FaultSchedule{}
	for line := 1; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("netem: fault csv: %w", err)
		}
		if line == 1 && rec[0] == "at_s" {
			continue
		}
		at, ok := faultSpan(rec[0], time.Second)
		if !ok {
			return nil, fmt.Errorf("netem: fault csv line %d: bad at %q", line, rec[0])
		}
		kind, err := parseFaultKind(rec[1])
		if err != nil {
			return nil, fmt.Errorf("netem: fault csv line %d: %w", line, err)
		}
		dur, ok := faultSpan(rec[2], time.Second)
		if !ok {
			return nil, fmt.Errorf("netem: fault csv line %d: bad duration %q", line, rec[2])
		}
		lat, ok := faultSpan(rec[3], time.Millisecond)
		if !ok {
			return nil, fmt.Errorf("netem: fault csv line %d: bad latency %q", line, rec[3])
		}
		fs.Events = append(fs.Events, FaultEvent{At: at, Kind: kind, Duration: dur, ExtraLatency: lat})
	}
	return fs, nil
}

// maxFaultSpan bounds every time field of a fault script: generous for
// sessions of minutes, and it keeps the float to Duration conversion from
// wrapping negative (a negative offset fires its fault at once).
const maxFaultSpan = 24 * time.Hour

// faultSpan parses one time field, given in unit: finite, non-negative and
// at most maxFaultSpan. It rounds rather than truncates: 8.2 s is not
// representable exactly in float64 and must not come back as 8.199999999 s.
func faultSpan(field string, unit time.Duration) (time.Duration, bool) {
	v, err := strconv.ParseFloat(field, 64)
	if err != nil || !(v >= 0 && v*float64(unit) <= float64(maxFaultSpan)) {
		return 0, false // the negated form also refuses NaN
	}
	return time.Duration(math.Round(v * float64(unit))), true
}

// FaultLink injects a scheduled fault script into connections built on top
// of a shaped Link. The timeline is anchored at the first wrapped
// connection and shared by every subsequent one, so the script replays
// identically across schemes, and each disconnect event fires exactly once
// — against whichever connection is live at that instant — which is what
// exercises a reconnecting client end to end.
type FaultLink struct {
	Link     Link
	Schedule *FaultSchedule
	// Seed feeds the corruption RNG (which bit a FaultBitFlip flips), so
	// fault scripts replay byte-identically. Zero is a valid seed.
	Seed int64

	mu      sync.Mutex
	armed   bool
	start   time.Time
	current net.Conn
	timers  []*time.Timer
	fired   map[int]bool // one-shot corruption events already applied
	rng     *rand.Rand
}

// wrap shapes inner with the link and attaches it to the fault timeline as
// the live connection.
func (fl *FaultLink) wrap(inner net.Conn) net.Conn {
	fc := &faultConn{Conn: newConn(inner, fl.Link), fl: fl}
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if !fl.armed {
		fl.armed = true
		fl.start = time.Now()
		if fl.Schedule != nil {
			for _, ev := range fl.Schedule.Events {
				if ev.Kind != FaultDisconnect {
					continue
				}
				fl.timers = append(fl.timers, time.AfterFunc(ev.At, fl.disconnectCurrent))
			}
		}
	}
	fl.current = fc
	return fc
}

// Pipe returns an in-memory client/server pair whose server side is shaped
// and fault-injected; successive calls share the fault timeline, modelling
// reconnections over the same faulty path.
func (fl *FaultLink) Pipe() (client, server net.Conn) {
	c, s := net.Pipe()
	return c, fl.wrap(s)
}

// Stop cancels any pending fault timers (test cleanup).
func (fl *FaultLink) Stop() {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	for _, t := range fl.timers {
		t.Stop()
	}
	fl.timers = nil
}

// disconnectCurrent hard-closes whichever connection is live right now.
func (fl *FaultLink) disconnectCurrent() {
	fl.mu.Lock()
	c := fl.current
	fl.current = nil
	fl.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// writeDelay is the stall a write starting now must absorb: the remainder
// of any active blackout window plus any active latency spikes.
func (fl *FaultLink) writeDelay() time.Duration {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if !fl.armed || fl.Schedule == nil {
		return 0
	}
	el := time.Since(fl.start)
	var d time.Duration
	for _, ev := range fl.Schedule.Events {
		switch ev.Kind {
		case faultBlackout:
			if el >= ev.At && el < ev.At+ev.Duration {
				if rem := ev.At + ev.Duration - el; rem > d {
					d = rem
				}
			}
		case faultLatencySpike:
			if el >= ev.At && el < ev.At+ev.Duration {
				d += ev.ExtraLatency
			}
		}
	}
	return d
}

// corruptWrite applies any due one-shot corruption event to p. It returns
// the buffer to actually transmit and the byte count to report to the
// writer (-1 meaning "whatever the link wrote"): a truncation transmits
// half the buffer but reports full success, exactly the silent data loss a
// checksummed stream must surface.
func (fl *FaultLink) corruptWrite(p []byte) ([]byte, int) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if !fl.armed || fl.Schedule == nil || len(p) == 0 {
		return p, -1
	}
	el := time.Since(fl.start)
	for i, ev := range fl.Schedule.Events {
		if ev.Kind != FaultBitFlip && ev.Kind != FaultTruncate {
			continue
		}
		if fl.fired[i] || el < ev.At {
			continue
		}
		if fl.fired == nil {
			fl.fired = make(map[int]bool)
		}
		fl.fired[i] = true
		if ev.Kind == FaultTruncate {
			return p[:len(p)/2], len(p)
		}
		if fl.rng == nil {
			fl.rng = rand.New(rand.NewSource(fl.Seed))
		}
		buf := append([]byte(nil), p...)
		bit := fl.rng.Intn(len(buf) * 8)
		buf[bit/8] ^= 1 << (bit % 8)
		return buf, -1
	}
	return p, -1
}

// faultConn applies the fault timeline on top of a shaped connection.
type faultConn struct {
	net.Conn // the shaped *Conn
	fl       *FaultLink
}

// Write stalls through blackout windows and latency spikes, applies any due
// corruption, then paces the bytes through the shaped link.
func (c *faultConn) Write(p []byte) (int, error) {
	if d := c.fl.writeDelay(); d > 0 {
		time.Sleep(d)
	}
	buf, report := c.fl.corruptWrite(p)
	n, err := c.Conn.Write(buf)
	if err != nil || report < 0 {
		return n, err
	}
	return report, nil
}

// FaultListener wraps accepted connections with the same fault link, so a
// TCP server can be exercised under a replayable fault script.
type FaultListener struct {
	net.Listener
	FL *FaultLink
}

// Accept waits for the next connection and attaches it to the fault link.
func (l *FaultListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.FL.wrap(c), nil
}
