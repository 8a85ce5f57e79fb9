// Package server implements the Dragonfly tile server (paper §3.3): a
// modified-DASH-style server that sends the manifest, then streams tiles
// according to the client's most recent request. A new request supersedes
// the old one — queued-but-untransmitted tiles are dropped — and a tile
// already transmitted on the primary stream is never re-sent (only
// masking-quality tiles may be upgraded).
//
// The server is fault tolerant: a reconnecting client may open its session
// with a resume frame carrying the tiles it already holds, and the server
// rebuilds its redundancy-suppression state from it instead of re-sending.
// Per-connection read/write deadlines, an idle-link heartbeat, a bounded
// send queue with slow-client shedding, and graceful drain on context
// cancellation keep one misbehaving peer from wedging the process.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dragonfly/internal/chaos"
	"dragonfly/internal/obs"
	"dragonfly/internal/proto"
	"dragonfly/internal/store"
	"dragonfly/internal/video"
)

// Failpoints (see docs/RESILIENCE.md, "Failpoint catalog"). Disarmed —
// always, outside chaos tests — each is a single atomic load on the path
// that hosts it; the send-path cost is pinned by BenchmarkManyConnStream
// and the AllocsPerRun send tests.
var (
	// server.accept: drop (error kinds) or stall (delay) a just-accepted
	// connection before any handshake byte, as if the socket died between
	// accept and handoff.
	siteAccept = chaos.NewSite("server.accept")
	// server.send.write: fail, stall, tear (partial), or bit-flip
	// (corrupt) one batched vectored write on the tile send path.
	siteSendWrite = chaos.NewSite("server.send.write")
)

// errWriteStall reports a session torn down for exhausting its
// WriteStallBudget: the peer accepted bytes too slowly for too long
// (slowloris) and the session was killed to release its queue commitment.
var errWriteStall = errors.New("server: write-stall budget exhausted")

// defaultHeartbeat is the idle-ping period used when Heartbeat is zero.
const defaultHeartbeat = time.Second

// DefaultMaxQueue caps the installed fetch list: player.SendQueue.Install
// sheds lowest utility first, and never masking, the continuity floor
// continuous playback relies on.
const DefaultMaxQueue = 4096

// Server serves a library of video manifests.
type Server struct {
	manifests map[string]*video.Manifest
	// stores holds the pre-framed wire buffers per video, built once at
	// manifest load (New) and shared process-wide across servers and
	// sessions: the steady-state send path serves these by reference with
	// zero per-send serialization or CRC work.
	stores map[string]*store.Store
	// Logf receives per-connection diagnostics; nil silences logging.
	Logf func(format string, args ...any)

	// ReadTimeout bounds the silence between client frames; the client
	// requests every decision interval (~100 ms), so any generous value
	// detects dead peers. 0 disables the deadline.
	ReadTimeout time.Duration
	// WriteTimeout bounds each outgoing frame; a client that cannot drain
	// the link within it is disconnected. 0 disables the deadline.
	WriteTimeout time.Duration
	// Heartbeat is the idle-ping period while the send queue is empty,
	// letting clients distinguish an idle link from a dead one.
	// 0 means defaultHeartbeat; negative disables pings.
	Heartbeat time.Duration
	// MaxQueueBytes caps the payload bytes a fetch list may commit the
	// session to, shed the same way as DefaultMaxQueue's item cap.
	// 0 disables the byte budget.
	MaxQueueBytes int64
	// MaxConns caps concurrent sessions. Beyond it the server fast-rejects
	// the handshake with a typed busy MsgError that resilient clients
	// treat as retryable-with-backoff. 0 means unlimited.
	MaxConns int
	// WriteStallBudget bounds the cumulative excess time a session may
	// spend blocked in writes — the slowloris defense WriteTimeout cannot
	// be, metered by a proto.StallMeter (which states the policy). A
	// session that exhausts it is killed with errWriteStall, releasing its
	// queue bytes. 0 disables.
	WriteStallBudget time.Duration

	// QoE, when non-nil, scales each session's queue budgets by its
	// cohort's shed-budget scale at every request install — the server
	// half of the fleet QoE feedback loop (see QoESource). Nil keeps the
	// static budgets.
	QoE QoESource
	// TraceDir, when set, receives one server-view JSONL session trace
	// per connection (EvSession header with the handshake cohort, one
	// EvShed per shedding install) for the ingest tier to tail. Empty
	// disables server-side tracing.
	TraceDir string

	// active counts in-flight sessions for MaxConns admission; draining
	// flips on Drain() and fast-rejects new sessions while in-flight ones
	// run to completion. queuedBytes sums the payload bytes committed
	// across all live fetch queues; together they feed the
	// srv_active_conns / srv_draining / srv_queue_bytes gauges, and the
	// probe pong the balancer scores backend load by carries all three.
	active      atomic.Int64
	draining    atomic.Bool
	queuedBytes atomic.Int64

	// Obs is the server's only ledger: every srv_* counter, gauge and
	// histogram lives here, the admin endpoint serves it, and Counters
	// reads it back. New creates it, so it is never nil. A caller that
	// shares one registry (across a restarted process's instances, or with
	// an admin endpoint or QoE poller) assigns it before Serve.
	Obs *obs.Registry
}

// Counters is a snapshot of the server's send accounting; the chaos tests
// use it to prove resumed sessions never re-send held primary tiles.
type Counters struct {
	PrimarySent  int64 // primary tile transmissions
	MaskTileSent int64 // tiled masking transmissions
	MaskFullSent int64 // full-360° masking transmissions
	BytesSent    int64 // payload bytes written
	Pings        int64 // idle heartbeats written
	Resumes      int64 // sessions opened via MsgResume
	ResumedItems int64 // dedup entries restored from resume summaries
	ShedItems    int64 // queued items dropped by slow-client shedding
	ShedBytes    int64 // payload bytes those shed items would have sent
	// CorruptFrames counts inbound frames torn down for a CRC-trailer
	// mismatch; RejectedConns counts handshakes fast-rejected by admission
	// control (MaxConns saturation or drain mode). Probes counts health
	// probes (first-message MsgPing) answered with a status pong.
	CorruptFrames int64
	RejectedConns int64
	Probes        int64
	// QoEScaledInstalls counts request installs whose queue budgets were
	// adjusted by a non-neutral cohort scale from the QoE feedback loop.
	QoEScaledInstalls int64
	// WriteStallKills counts sessions torn down with errWriteStall for
	// exhausting WriteStallBudget.
	WriteStallKills int64
}

// Add folds another snapshot into c, field by field: the one sum every
// total across server instances (a restarted process, a fleet) goes
// through, so no caller can forget a field.
func (c *Counters) Add(o Counters) {
	c.PrimarySent += o.PrimarySent
	c.MaskTileSent += o.MaskTileSent
	c.MaskFullSent += o.MaskFullSent
	c.BytesSent += o.BytesSent
	c.Pings += o.Pings
	c.Resumes += o.Resumes
	c.ResumedItems += o.ResumedItems
	c.ShedItems += o.ShedItems
	c.ShedBytes += o.ShedBytes
	c.CorruptFrames += o.CorruptFrames
	c.RejectedConns += o.RejectedConns
	c.Probes += o.Probes
	c.QoEScaledInstalls += o.QoEScaledInstalls
	c.WriteStallKills += o.WriteStallKills
}

// Counters returns a snapshot of the server's send accounting, read back
// from the registry.
func (s *Server) Counters() Counters {
	c := func(name string) int64 { return s.Obs.Counter(name).Value() }
	return Counters{
		PrimarySent:       c("srv_primary_sent"),
		MaskTileSent:      c("srv_mask_tile_sent"),
		MaskFullSent:      c("srv_mask_full_sent"),
		BytesSent:         c("srv_bytes_sent"),
		Pings:             c("srv_pings"),
		Resumes:           c("srv_resumes"),
		ResumedItems:      c("srv_resumed_items"),
		ShedItems:         c("srv_shed_items"),
		ShedBytes:         c("srv_shed_bytes"),
		CorruptFrames:     c("srv_corrupt_frames"),
		RejectedConns:     c("srv_rejected_conns"),
		Probes:            c("srv_probes"),
		QoEScaledInstalls: c("srv_qoe_scaled_installs"),
		WriteStallKills:   c("srv_write_stall_kills"),
	}
}

// Drain puts the server in drain mode: new handshakes are fast-rejected
// with a retryable busy error while in-flight sessions run to completion.
// Combine with context cancellation (after the sessions finish) for a full
// graceful shutdown; Drain itself never interrupts a stream.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.Obs.Gauge("srv_draining").Set(1)
}

// ActiveConns reports the number of in-flight sessions.
func (s *Server) ActiveConns() int64 { return s.active.Load() }

// noteActive adjusts the in-flight session count and mirrors it to the
// srv_active_conns gauge, returning the new count.
func (s *Server) noteActive(delta int64) int64 {
	n := s.active.Add(delta)
	s.Obs.Gauge("srv_active_conns").Set(float64(n))
	return n
}

// New creates a server for the given videos. It warms the shared tile
// store for each manifest here, at load time, so the per-manifest CRC
// framing cost is paid once per process — a cold-restarted server in the
// same process (the crash tests, the fleet balancer's respawns) reuses
// the already-built frames.
func New(manifests ...*video.Manifest) *Server {
	s := &Server{
		manifests: make(map[string]*video.Manifest, len(manifests)),
		stores:    make(map[string]*store.Store, len(manifests)),
		Obs:       obs.NewRegistry(),
	}
	for _, m := range manifests {
		s.manifests[m.VideoID] = m
		s.stores[m.VideoID] = store.Shared(m)
	}
	return s
}

// Videos lists the available video IDs.
func (s *Server) Videos() []string {
	out := make([]string, 0, len(s.manifests))
	for id := range s.manifests {
		out = append(out, id)
	}
	return out
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Server) setReadDeadline(conn net.Conn) {
	if s.ReadTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.ReadTimeout))
	}
}

func (s *Server) setWriteDeadline(conn net.Conn) {
	if s.WriteTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
	}
}

// Serve accepts connections until the listener fails or ctx is done. On
// cancellation it stops accepting, lets in-flight handlers drain their
// queues and say goodbye, and waits for them before returning.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	// Publish the load gauges at their current values so a balancer
	// scraping a fresh (or restarted) instance reads zeros, not absent
	// keys it would have to treat as stale data.
	s.noteActive(0)
	s.Obs.Gauge("srv_queue_bytes").Set(float64(s.queuedBytes.Load()))
	// srv_store_bytes is the resident footprint of the shared tile
	// stores — the process-wide cost of serving these manifests to any
	// number of sessions, the zero slab they share counted once. It is
	// distinct from srv_queue_bytes, which counts pending transmission
	// over shared (not duplicated) buffers.
	stores := make([]*store.Store, 0, len(s.stores))
	for _, ts := range s.stores {
		stores = append(stores, ts)
	}
	s.Obs.Gauge("srv_store_bytes").Set(float64(store.Footprint(stores...)))
	if s.draining.Load() {
		s.Obs.Gauge("srv_draining").Set(1)
	} else {
		s.Obs.Gauge("srv_draining").Set(0)
	}
	go func() {
		<-ctx.Done()
		l.Close()
	}()
	var wg sync.WaitGroup
	for {
		conn, err := l.Accept()
		if err != nil {
			wg.Wait()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		if siteAccept.Err() != nil {
			// Injected accept-path fault: the connection dies (or, for a
			// delay, stalls) between accept and handoff, before any
			// handshake byte. Clients see a closed conn and redial through
			// their normal reconnect path.
			conn.Close()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			if err := s.handleConn(ctx, conn); err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, context.Canceled) {
				s.logf("server: connection ended: %v", err)
			}
		}()
	}
}

// admit takes an admission slot, or says why not, before a client byte is
// read: a saturated or draining server must shed load at once, unread.
func (s *Server) admit() (busy string) {
	if s.draining.Load() {
		busy = "server draining"
	} else if n := s.noteActive(1); s.MaxConns > 0 && n > int64(s.MaxConns) {
		s.noteActive(-1)
		busy = fmt.Sprintf("connection limit %d reached", s.MaxConns)
	}
	if busy != "" {
		s.Obs.Counter("srv_rejected_conns").Inc()
	}
	return busy
}

// reject tells a peer why it gets no session, under the write deadline: a
// peer that never reads must not hold the handler and its admission slot.
func (s *Server) reject(conn net.Conn, text string) {
	s.setWriteDeadline(conn)
	_ = proto.WriteError(conn, text)
}

// handleConn runs one streaming session; on ctx cancellation the
// sender drains the queued tiles, sends a Bye, and returns. It is the I/O
// shell (conn, deadlines, clock, two loops) around the deciding session.
func (s *Server) handleConn(ctx context.Context, conn net.Conn) error {
	if busy := s.admit(); busy != "" {
		// Typed as busy so resilient clients back off and retry.
		s.reject(conn, proto.BusyText(busy))
		return fmt.Errorf("server: rejected connection: %s", busy)
	}
	defer s.noteActive(-1)
	s.setReadDeadline(conn)
	first, err := proto.ReadMessage(conn)
	if err != nil {
		return fmt.Errorf("server: read hello: %w", err)
	}
	ss, pong, refuse, err := s.open(first)
	switch {
	case err != nil:
		if refuse != "" {
			s.reject(conn, refuse)
		}
		return err
	case pong != nil:
		s.setWriteDeadline(conn)
		if err := proto.WritePong(conn, *pong); err != nil {
			return fmt.Errorf("server: send pong: %w", err)
		}
		return nil
	}
	defer ss.release()
	// The store's one encode of the manifest frame, held by the session
	// until release so every session of the video that overlaps it is
	// served the same bytes without encoding.
	if ss.manifest, err = ss.tiles.ManifestFrame(); err != nil {
		return fmt.Errorf("server: send manifest: %w", err)
	}
	s.setWriteDeadline(conn)
	if _, err := conn.Write(ss.manifest); err != nil {
		return fmt.Errorf("server: send manifest: %w", err)
	}
	// Graceful drain: cancellation closes the session, so the sender
	// flushes what is queued and says goodbye instead of vanishing.
	stopWatch := context.AfterFunc(ctx, ss.close)
	defer stopWatch()
	readErr := make(chan error, 1)
	go func() { readErr <- s.receive(conn, ss) }()
	if err := s.send(conn, ss); err != nil {
		return err
	}
	// Best-effort goodbye: on graceful drain it tells the client the
	// remaining queue has been flushed and nothing more is coming.
	s.setWriteDeadline(conn)
	_ = proto.WriteBye(conn)
	if ctx.Err() != nil {
		// Unblock the request reader (it may be mid-read with no deadline)
		// and report the drain.
		conn.Close()
		<-readErr
		return ctx.Err()
	}
	if err := <-readErr; err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// receive is the request reader: it hands each fetch list to the session
// until the client leaves, and closes the session on the way out so the
// sender flushes and stops. The frame body buffer is recycled across reads
// (proto.ReadMessageBuf); nothing retains a message past one iteration —
// the items the session keeps are decoded into fresh memory, not aliased.
func (s *Server) receive(conn net.Conn, ss *session) error {
	defer ss.close()
	var rbuf []byte
	for {
		s.setReadDeadline(conn)
		msg, buf, err := proto.ReadMessageBuf(conn, rbuf)
		if err != nil {
			if errors.Is(err, proto.ErrChecksum) {
				ss.corruptFrame()
			}
			return err
		}
		rbuf = buf
		switch msg.Type {
		case proto.MsgRequest:
			ss.request(*msg.Request)
		case proto.MsgBye:
			return nil
		default:
			return fmt.Errorf("server: unexpected message type %d", msg.Type)
		}
	}
}

// send is the tile sender: one vectored write on the raw conn per batch the
// session gathers, heartbeats while idle, until done or a write fails.
func (s *Server) send(conn net.Conn, ss *session) error {
	heartbeat := s.Heartbeat
	if heartbeat == 0 {
		heartbeat = defaultHeartbeat
	}
	var idle *time.Timer
	defer func() {
		if idle != nil {
			idle.Stop()
		}
	}()
	for {
		wire, done := ss.nextBatch()
		if len(wire) > 0 {
			s.setWriteDeadline(conn)
			start := time.Now()
			n, err := writeBatch(conn, wire)
			if err := ss.wrote(n, time.Since(start), err); err != nil {
				return err
			}
		}
		switch {
		case done:
			return nil
		case len(wire) > 0:
			continue
		case heartbeat < 0:
			<-ss.wake
			continue
		}
		if idle == nil {
			idle = time.NewTimer(heartbeat)
		} else {
			idle.Reset(heartbeat)
		}
		select {
		case <-ss.wake:
			if !idle.Stop() {
				<-idle.C
			}
		case <-idle.C:
			s.setWriteDeadline(conn)
			start := time.Now()
			if err := proto.WritePing(conn); err != nil {
				return fmt.Errorf("server: send ping: %w", err)
			}
			if err := ss.pinged(time.Since(start)); err != nil {
				return err
			}
		}
	}
}

// writeBatch flushes one gathered batch. Disarmed (always, in production)
// it is exactly the vectored wire.WriteTo; armed, the server.send.write
// failpoint turns the flush into a returned error, a stall, a torn write
// delivering only a prefix, or a full write with one flipped byte. The
// fault paths flatten into a private copy — the store's shared buffers are
// immutable and must never be written through.
func writeBatch(conn net.Conn, wire net.Buffers) (int64, error) {
	f := siteSendWrite.Fault()
	if !f.Active() {
		return wire.WriteTo(conn)
	}
	switch f.Kind {
	case chaos.FaultDelay:
		time.Sleep(f.Delay)
		return wire.WriteTo(conn)
	case chaos.FaultError:
		return 0, f.Err
	}
	var total int
	for _, b := range wire {
		total += len(b)
	}
	flat := make([]byte, 0, total)
	for _, b := range wire {
		flat = append(flat, b...)
	}
	if f.Kind == chaos.FaultCorrupt && len(flat) > 0 {
		// One flipped byte in the last frame's CRC trailer: the client's
		// frame CRC fails and the link tears down. The trailer (not an
		// arbitrary offset) is chosen so the frame LENGTH fields stay
		// intact — a corrupted length would stall the reader waiting for
		// bytes that never come rather than failing fast, which is the
		// read-timeout failure mode, not the integrity one this kind
		// models. The hit tick picks which trailer byte, deterministically.
		off := len(flat) - 1 - int(f.Tick%uint64(min(4, len(flat))))
		flat[off] ^= 0x40
		n, err := conn.Write(flat)
		return int64(n), err
	}
	// Partial: deliver a prefix, then fail as the kernel would on a
	// connection reset mid-writev. The caller's cumulative-offset
	// accounting credits only fully delivered frames.
	k := int(float64(len(flat)) * f.Frac)
	n, err := conn.Write(flat[:k])
	if err == nil {
		err = f.Err
	}
	return int64(n), err
}
