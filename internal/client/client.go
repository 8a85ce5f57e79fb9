// Package client implements the real-time streaming client: it drives any
// player.Scheme over the wire protocol against a tile server, replaying a
// user head trace in wall-clock time. The session itself — when to decide,
// render, skip or stall, and all of its accounting — is player.Playback,
// the same state machine the discrete-event engine steps; this package is
// its wire driver: the wall clock, the handshake, the receiver, the
// reconnector and request generations. Every goroutine steps the Playback
// under the session mutex, deliveries first and then Advance, and writes to
// the connection only after unlocking. This is the path the
// cmd/dragonfly-client binary runs.
//
// The client is fault tolerant: PlayResilient wraps the session in a
// reconnector with read/write deadlines, exponential backoff with jitter,
// a per-outage attempt budget and one wall-clock budget for all the time
// spent offline. The opening dial and every reconnect are one retry loop
// (session.connect on retry.Do). During an outage the Playback keeps
// being stepped — a NeverStall scheme renders from masking and accounts
// holes as skips — and on reconnect the session resumes via proto.MsgResume
// so already-held tiles are never re-downloaded.
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"dragonfly/internal/chaos"
	"dragonfly/internal/obs"
	"dragonfly/internal/player"
	"dragonfly/internal/proto"
	"dragonfly/internal/retry"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// DialFunc opens a server connection; the session calls it for its opening
// dial and on every recovery attempt.
type DialFunc func() (net.Conn, error)

// client.dial fronts every dial the client performs — the opening
// connect, handshake retries, and every reconnect attempt — so chaos runs
// can refuse or stall connections fleet-wide (docs/RESILIENCE.md).
var siteClientDial = chaos.NewSite("client.dial")

// errReconnectBudget reports that ReconnectPolicy.TotalBudget elapsed with
// the client still unable to reach a server: the fleet is, as far as this
// session can tell, permanently dead. PlayResilient returns it (wrapped)
// when the budget runs out before the first successful handshake.
var errReconnectBudget = errors.New("client: total reconnect budget exhausted")

// ReconnectPolicy tunes the client's fault tolerance. The zero value
// disables reconnection: the opening dial and handshake are tried once, and
// the first connection error ends the session.
type ReconnectPolicy struct {
	// MaxAttempts is the dial budget per outage; 0 disables reconnection.
	// When the budget is exhausted the session keeps playing what it holds
	// (continuous playback accounts the holes as skips).
	MaxAttempts int
	// BaseDelay is the first backoff delay (default 50 ms); it doubles per
	// attempt up to MaxDelay (default 2 s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// ReadTimeout is the per-read idle deadline. The server heartbeats
	// while its queue is idle, so a link silent for longer than this is
	// treated as dead. 0 disables the deadline.
	ReadTimeout time.Duration
	// WriteTimeout bounds each outgoing frame write. 0 disables it.
	WriteTimeout time.Duration
	// Seed feeds the jitter RNG so experiments replay deterministically.
	Seed int64
	// TotalBudget caps the wall-clock time the session may spend
	// disconnected: one ledger across the opening dial and every outage,
	// each connect phase running under a deadline for what is left.
	// Exhaustion before the first successful handshake fails the session
	// with a typed errReconnectBudget, so a permanently dead fleet surfaces
	// as a prompt, classifiable error. Mid-session exhaustion declares the
	// link dead and playback carries on with what is held, as when
	// MaxAttempts runs out. 0 means no wall-clock cap.
	TotalBudget time.Duration
}

// delay computes the backoff before the given (0-based) attempt: the
// capped doubling plus up to half again at random, which decorrelates
// reconnection herds.
func (p ReconnectPolicy) delay(attempt int, rng *rand.Rand) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 2 * time.Second
	}
	d := retry.Exp(base, max, attempt)
	return d + time.Duration(float64(d)*0.5*rng.Float64())
}

// PlayOptions tunes a session; its wall-clock cap is the player's default.
type PlayOptions struct {
	// Reconnect tunes fault tolerance; its zero value dials once and ends
	// the session at the first link loss.
	Reconnect ReconnectPolicy

	// Trace, when non-nil, receives structured session events (fetches,
	// skips, stalls, outages, reconnects) for JSONL export.
	Trace *obs.Trace

	// Cohort labels the session for fleet QoE rollups, conventionally
	// "<trace class>:<network class>". It is stamped into the trace's
	// EvSession header and sent to the server (hello and resume) so
	// QoE-feedback shed scaling can key on it. Empty derives
	// "<head class>:net".
	Cohort string
}

// PlayResilient dials the server and streams videoID, replaying the head
// trace in real time, and returns the session metrics. It survives
// connection faults: on a read/write error or idle timeout it
// redials with exponential backoff and resumes the session via the resume
// protocol, while playback keeps running on whatever is already held. The
// initial dial runs through the same backoff-and-redial loop, which also
// absorbs busy rejections, so a briefly absent backend (restart, failover
// gap) delays the session start instead of killing it. Every connection
// it dials it also closes, whichever way the session ends.
func PlayResilient(dial DialFunc, videoID string, head *trace.HeadTrace, scheme player.Scheme, opts PlayOptions) (*player.Metrics, error) {
	if head == nil || scheme == nil || dial == nil {
		return nil, fmt.Errorf("client: a head trace, a scheme and a dial function are required")
	}
	if opts.Cohort == "" {
		opts.Cohort = head.ClassName() + ":net"
	}
	// The session header leads the trace so consumers can cohort-key every
	// later event; handshake retries (EvBusy) come after it by design.
	opts.Trace.Add(obs.SessionEvent(videoID, opts.Cohort))

	seed := opts.Reconnect.Seed
	if seed == 0 {
		seed = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := &session{
		dial:      dial,
		rp:        opts.Reconnect,
		rng:       rand.New(rand.NewSource(seed)),
		ctx:       ctx,
		cancel:    cancel,
		videoID:   videoID,
		cohort:    opts.Cohort,
		trace:     opts.Trace,
		delivered: make(chan struct{}, 1),
		fatal:     make(chan error, 1),
	}
	conn, m, err := s.connect(nil)
	if err != nil {
		return nil, err
	}
	pb, err := player.NewPlayback(player.Config{Manifest: m, Head: head, Scheme: scheme, Trace: opts.Trace})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("client: %w", err)
	}
	s.conn, s.m, s.pb, s.met, s.start = conn, m, pb, pb.Metrics(), time.Now()
	return s.run()
}

// errBusy marks a handshake rejected by server admission control (connection
// limit or drain); it is retryable with backoff.
var errBusy = errors.New("client: server busy")

// errHandshakeLink marks a handshake that died at the transport level —
// the connection was severed between dial and manifest (an accept-path
// drop, a mid-splice failure, a host dying under the dial). Like busy,
// it is retryable with a fresh dial; unlike a server error message, the
// server rejected nothing.
var errHandshakeLink = errors.New("client: handshake link failure")

// handshake opens a session on a fresh connection: the first message — a
// hello, or a resume carrying what the client holds — goes out under the
// write deadline, and the reply is read under the read deadline (10 s when
// unset) and classified, here only: the manifest, errBusy, a server error,
// or errHandshakeLink. session.connect retries it.
func handshake(conn net.Conn, rp ReconnectPolicy, videoID, cohort string, held *player.HeldSummary) (*video.Manifest, error) {
	if rp.WriteTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(rp.WriteTimeout))
	}
	var werr error
	if held == nil {
		werr = proto.WriteHello(conn, proto.Hello{VideoID: videoID, Cohort: cohort})
	} else {
		werr = proto.WriteResume(conn, proto.Resume{Version: proto.ProtoVersion, VideoID: videoID, Held: *held, Cohort: cohort})
	}
	// Read even if the write failed: a fast-rejecting server writes its busy
	// error and closes without reading, so the write can break while the
	// rejection sits unread in the receive buffer — the error to report.
	wait := rp.ReadTimeout
	if wait <= 0 {
		wait = 10 * time.Second
	}
	_ = conn.SetReadDeadline(time.Now().Add(wait))
	msg, rerr := proto.ReadMessage(conn)
	_ = conn.SetReadDeadline(time.Time{})
	switch {
	case rerr == nil && msg.Type == proto.MsgError && proto.IsBusyText(msg.Error):
		return nil, fmt.Errorf("%w: %s", errBusy, msg.Error)
	case rerr == nil && msg.Type == proto.MsgError:
		return nil, fmt.Errorf("client: server error: %s", msg.Error)
	case werr != nil:
		return nil, fmt.Errorf("%w: write: %v", errHandshakeLink, werr)
	case rerr != nil:
		return nil, fmt.Errorf("%w: read manifest: %v", errHandshakeLink, rerr)
	case msg.Type != proto.MsgManifest:
		return nil, fmt.Errorf("client: expected manifest, got type %d", msg.Type)
	}
	return msg.Manifest, nil
}

type session struct {
	dial DialFunc
	rp   ReconnectPolicy
	rng  *rand.Rand // jitter source; one connect phase at a time
	// ctx ends with the session (finish cancels it under mu): late
	// deliveries and reconnects check it under mu and drop, since the
	// receiver may outlive play, and a pending backoff returns at once.
	ctx    context.Context
	cancel context.CancelFunc

	videoID string
	m       *video.Manifest
	cohort  string
	trace   *obs.Trace

	start time.Time // zero until the opening handshake succeeds

	mu sync.Mutex
	// pb is the session proper; met is pb.Metrics(), for the counters that
	// are the wire's (disconnects, outages, corruption). Both under mu.
	pb        *player.Playback
	met       *player.Metrics
	conn      net.Conn // nil while disconnected
	connID    int      // generation token invalidating stale receivers
	down      bool     // an outage is in progress
	downAt    time.Duration
	linkDead  bool          // reconnect budget exhausted or server said goodbye
	lastEvent time.Duration // last send/receive instant, for throughput
	lastReq   []player.RequestItem
	gen       uint32
	busy      int64         // busy rejects, opening phase included
	offline   time.Duration // TotalBudget's ledger: every connect phase that succeeded

	delivered chan struct{}
	fatal     chan error
}

// now is the session clock. It starts when the opening handshake succeeds
// and reads zero before.
func (s *session) now() time.Duration {
	if s.start.IsZero() {
		return 0
	}
	return time.Since(s.start)
}

func (s *session) wakeLoop() {
	select {
	case s.delivered <- struct{}{}:
	default:
	}
}

func (s *session) reportFatal(err error) {
	select {
	case s.fatal <- err:
	default:
	}
}

// receiver drains TileData frames from one connection into the received
// state; id identifies the connection so a stale receiver cannot report an
// outage for a link that has already been replaced.
func (s *session) receiver(conn net.Conn, id int) {
	// rbuf is this receiver's recycled frame-body buffer
	// (proto.ReadMessageBuf): after the first large tile it makes the
	// steady-state read path allocation-free. Nothing below outlives one
	// iteration holding msg — the payload is checksummed, measured, and
	// recorded by value, never retained.
	var rbuf []byte
	for {
		if s.rp.ReadTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.rp.ReadTimeout))
		}
		var msg *proto.Message
		var err error
		msg, rbuf, err = proto.ReadMessageBuf(conn, rbuf)
		if err != nil {
			if errors.Is(err, proto.ErrChecksum) {
				// A corrupted frame desynchronizes the stream; tear the link
				// down and let the reconnector resume. The resume bitmap does
				// not hold the lost tile, so the server re-sends it.
				s.mu.Lock()
				s.met.CorruptFrames++
				s.mu.Unlock()
			}
			s.linkLost(id, err)
			return
		}
		switch msg.Type {
		case proto.MsgTileData:
			at := s.now()
			it, size := msg.TileData.Item, int64(len(msg.TileData.Payload))
			// A tile is held only if the manifest has it and its payload
			// matches the manifest checksum. Anything else is dropped —
			// never indexed, never rendered, refetched by a later
			// decide/resume cycle — but its bytes still crossed the link,
			// so they count as received and toward the throughput estimate.
			intact := it.In(s.m)
			if intact {
				want, hasSum := it.Checksum(s.m)
				intact = !hasSum || proto.PayloadChecksum(msg.TileData.Payload) == want
			}
			s.mu.Lock()
			if s.ctx.Err() != nil {
				s.mu.Unlock()
				continue
			}
			if intact {
				s.pb.Deliver(at, it, size, at-s.lastEvent, at)
			} else {
				s.met.CorruptTiles++
				s.pb.Transferred(size, at-s.lastEvent)
				s.trace.Add(obs.Event{At: at, Kind: obs.EvCorrupt, Chunk: it.Chunk, Tile: int(it.Tile), N: size})
			}
			s.lastEvent = at
			s.mu.Unlock()
			s.wakeLoop()
		case proto.MsgPing:
			// Heartbeat: the link is idle but alive.
		case proto.MsgBye:
			// Server finished (or drained on shutdown): no more data will
			// ever arrive on this session; keep playing what we have.
			s.mu.Lock()
			if s.connID == id {
				s.linkDead = true
			}
			s.mu.Unlock()
			s.trace.Record(s.now(), obs.EvLinkDead, 0)
			return
		case proto.MsgError:
			s.reportFatal(fmt.Errorf("client: server error: %s", msg.Error))
			return
		default:
			s.reportFatal(fmt.Errorf("client: unexpected message type %d", msg.Type))
			return
		}
	}
}

// linkLost handles a connection failure on conn id: fatal for a session
// with no reconnect budget, otherwise the start of an outage with a
// reconnector behind it.
func (s *session) linkLost(id int, err error) {
	s.mu.Lock()
	if s.ctx.Err() != nil || id != s.connID || s.down || s.linkDead {
		s.mu.Unlock()
		return
	}
	if s.rp.MaxAttempts <= 0 {
		s.mu.Unlock()
		s.reportFatal(fmt.Errorf("client: connection: %w", err))
		return
	}
	s.down = true
	s.downAt = s.now()
	downAt := s.downAt
	s.met.Disconnects++
	old := s.conn
	s.conn = nil
	s.mu.Unlock()
	s.trace.Record(downAt, obs.EvOutage, 0)
	if old != nil {
		old.Close()
	}
	go s.reconnect()
}

// connect dials and handshakes until a server takes the session: the
// opening phase (held nil: a hello) and every reconnect (a resume with
// what is held). Opening is a first try plus MaxAttempts retries; a
// reconnect's first try was the lost link, so its caller has waited
// delay(0) and its MaxAttempts dials are all retries. A server error is
// final only when opening: on resume the next dial may reach another
// member. The phase runs under what is left of TotalBudget, counted from
// when the session went offline, and bills its time to that one ledger
// when it succeeds. connect closes every connection it gives up on.
func (s *session) connect(held *player.HeldSummary) (net.Conn, *video.Manifest, error) {
	tries, lost := s.rp.MaxAttempts+1, 0
	s.mu.Lock()
	from := time.Now()
	if held != nil {
		tries, lost, from = s.rp.MaxAttempts, 1, s.start.Add(s.downAt)
	}
	ctx, cancel := s.ctx, context.CancelFunc(func() {})
	if b := s.rp.TotalBudget; b > 0 {
		ctx, cancel = context.WithDeadline(s.ctx, from.Add(b-s.offline))
	}
	s.mu.Unlock()
	defer cancel()

	var conn net.Conn
	var m *video.Manifest
	err := retry.Do(ctx, tries, func(k int) time.Duration { return s.rp.delay(k-1+lost, s.rng) }, func(k int) error {
		err := siteClientDial.Err()
		if err == nil {
			conn, err = s.dial()
		}
		if err != nil {
			return fmt.Errorf("client: dial: %w", err)
		}
		if m, err = handshake(conn, s.rp, s.videoID, s.cohort, held); err == nil {
			s.mu.Lock()
			s.offline += time.Since(from)
			s.mu.Unlock()
			return nil
		}
		conn.Close() // a failed handshake ends its connection, retried or not
		conn = nil
		busy := errors.Is(err, errBusy)
		if busy {
			s.mu.Lock()
			s.busy++
			s.mu.Unlock()
			s.trace.Record(s.now(), obs.EvBusy, int64(k+1))
		}
		if held == nil && !busy && !errors.Is(err, errHandshakeLink) {
			return retry.Permanent(err) // a refused hello: final
		}
		return err
	})
	if err != nil && ctx.Err() == context.DeadlineExceeded {
		err = fmt.Errorf("%w (last error: %v)", errReconnectBudget, err)
	}
	return conn, m, err
}

// reconnect recovers from one outage. On success the new link replaces the
// lost one and the outstanding fetch list is re-issued at once; when the
// attempts or TotalBudget run out the link is declared dead and playback
// carries on with what is held.
func (s *session) reconnect() {
	retry.Sleep(s.ctx, s.rp.delay(0, s.rng)) // cut short if the session ends
	s.mu.Lock()
	if s.ctx.Err() != nil {
		// The session has finished (finish cancels under mu before Finish),
		// and its Playback's tile state belongs to the next session.
		s.mu.Unlock()
		return
	}
	held := s.pb.Held()
	s.mu.Unlock()
	conn, _, err := s.connect(&held)

	s.mu.Lock()
	if s.ctx.Err() != nil {
		s.mu.Unlock()
		if conn != nil {
			conn.Close()
		}
		return
	}
	if err != nil {
		s.linkDead = true
		s.mu.Unlock()
		s.trace.Record(s.now(), obs.EvLinkDead, 0)
		s.wakeLoop()
		return
	}
	s.connID++
	id := s.connID
	s.conn = conn
	s.down = false
	now := s.now()
	s.met.OutageDuration += now - s.downAt
	s.met.ResumedTiles += int64(held.Count())
	// Do not bill the outage to the throughput predictor.
	s.lastEvent = now
	// Copy while holding the lock: lastReq's backing array is reused by
	// the next decision, and the wire write below happens unlocked.
	req := append([]player.RequestItem(nil), s.lastReq...)
	s.gen++
	gen := s.gen
	s.mu.Unlock()

	s.trace.Record(now, obs.EvReconnect, int64(held.Count()))
	go s.receiver(conn, id)
	// Re-issue the outstanding fetch list immediately rather than
	// waiting for the next decision epoch.
	if len(req) > 0 {
		s.writeRequest(conn, id, gen, req)
	}
	s.wakeLoop()
}

// writeRequest ships one fetch list on conn id, treating a failure as a
// link loss.
func (s *session) writeRequest(conn net.Conn, id int, gen uint32, items []player.RequestItem) {
	if s.rp.WriteTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(s.rp.WriteTimeout))
	}
	if err := proto.WriteRequest(conn, proto.Request{Generation: gen, Items: items}); err != nil {
		s.linkLost(id, fmt.Errorf("send request: %w", err))
	}
}

// run steps the Playback in wall-clock time until it is over: Advance, ship
// the fetch list if one was decided, then sleep until the next control
// event or until the receiver or reconnector has something new.
func (s *session) run() (*player.Metrics, error) {
	go s.receiver(s.conn, s.connID)
	for {
		s.mu.Lock()
		now := s.now()
		if s.pb.Over(now) {
			s.mu.Unlock()
			return s.finish(true), nil
		}
		var (
			conn net.Conn
			id   int
			gen  uint32
		)
		fetch, decided := s.pb.Advance(now)
		if decided {
			// Copy: fetch aliases a buffer the decision after next
			// overwrites, and the reconnector re-issues lastReq later —
			// on its own if the link is down now (conn == nil).
			s.lastReq = append(s.lastReq[:0], fetch...)
			s.gen++
			gen = s.gen
			if now > s.lastEvent {
				s.lastEvent = now
			}
			conn, id = s.conn, s.connID
		}
		wake := s.pb.NextEvent()
		s.mu.Unlock()
		if conn != nil {
			s.writeRequest(conn, id, gen, fetch)
		}
		if sleep := wake - s.now(); sleep > 0 {
			timer := time.NewTimer(sleep)
			select {
			case <-timer.C:
			case <-s.delivered:
				timer.Stop()
			case err := <-s.fatal:
				timer.Stop()
				s.finish(false)
				return nil, err
			}
		}
	}
}

// finish ends the session on every return path. It ends the session's
// context first, so the receiver and reconnector drop whatever comes later
// and a pending backoff returns at once, then releases the link: a goodbye
// on a clean end, then the connection itself, since the session owns every
// connection it dials.
func (s *session) finish(bye bool) *player.Metrics {
	s.mu.Lock()
	s.cancel()
	now := s.now()
	if s.down {
		// Close the open outage interval: the session ended disconnected.
		s.met.OutageDuration += now - s.downAt
		s.down = false
	}
	s.met.BusyRejects = s.busy
	met := s.pb.Finish(now)
	conn := s.conn
	s.mu.Unlock()
	if conn != nil {
		if bye {
			_ = proto.WriteBye(conn)
		}
		conn.Close()
	}
	return met
}

// defaultDialTimeout bounds each dial a MultiDialer makes.
const defaultDialTimeout = 10 * time.Second

// dialTimeout connects to a Dragonfly server over TCP, failing after the
// given timeout instead of hanging on an unresponsive address.
func dialTimeout(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	return conn, nil
}
