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
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dragonfly/internal/chaos"
	"dragonfly/internal/obs"
	"dragonfly/internal/player"
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

// ErrWriteStall reports a session torn down for exhausting its
// WriteStallBudget: the peer accepted bytes too slowly for too long
// (slowloris) and the session was killed to release its queue commitment.
var ErrWriteStall = errors.New("server: write-stall budget exhausted")

// DefaultHeartbeat is the idle-ping period used when Heartbeat is zero.
const DefaultHeartbeat = time.Second

// DefaultMaxQueue bounds the installed fetch list when MaxQueue is zero.
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
	// 0 means DefaultHeartbeat; negative disables pings.
	Heartbeat time.Duration
	// MaxQueue caps the installed fetch list; oversized requests are shed
	// lowest-utility-first (the tail of the ordered list), but masking
	// entries are never dropped — they are the continuity floor continuous
	// playback relies on. 0 means DefaultMaxQueue.
	MaxQueue int
	// MaxQueueBytes caps the payload bytes an installed fetch list may
	// commit the session to — the per-session memory/backlog budget. It
	// feeds the same lowest-utility-first shedder as MaxQueue; masking
	// entries always fit. 0 disables the byte budget.
	MaxQueueBytes int64
	// MaxConns caps concurrent sessions. Beyond it the server fast-rejects
	// the handshake with a typed busy ErrorMsg that resilient clients
	// treat as retryable-with-backoff. 0 means unlimited.
	MaxConns int
	// WriteStallBudget bounds the cumulative *excess* time a session may
	// spend blocked in writes — the slowloris defense. Each write gets a
	// free allowance of a tenth of the budget (at least 1 ms); time beyond
	// the allowance accumulates, and when the total exceeds the budget the
	// session is killed with ErrWriteStall, releasing its queue bytes.
	// This is distinct from WriteTimeout: a peer that drains each write
	// just inside the deadline can still pin queue memory for the whole
	// session; the stall budget bounds that integral. 0 disables.
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
	// srv_active_conns / srv_draining / srv_queue_bytes gauges the
	// balancer reads off the admin endpoint to score backend load.
	active      atomic.Int64
	draining    atomic.Bool
	queuedBytes atomic.Int64

	// Obs, when non-nil, mirrors the send accounting into a metrics
	// registry (srv_* counters, tile-size and queue-length histograms) for
	// the admin endpoint. Nil disables the mirroring.
	Obs *obs.Registry

	ctr counters
}

// connObs is the per-connection binding of the registry metrics: handles
// are resolved once per connection so the tile-send hot loop updates them
// with plain atomics, no map lookups. All handles are nil-safe.
type connObs struct {
	primary, maskTile, maskFull *obs.Counter
	bytes, pings, shed          *obs.Counter
	shedBytes, corruptFrames    *obs.Counter
	qoeInstalls                 *obs.Counter
	tileBytes, queueLen         *obs.Histogram
}

func (s *Server) bindConnObs() connObs {
	r := s.Obs // nil registry hands out detached, nil-safe metrics
	return connObs{
		primary:       r.Counter("srv_primary_sent"),
		maskTile:      r.Counter("srv_mask_tile_sent"),
		maskFull:      r.Counter("srv_mask_full_sent"),
		bytes:         r.Counter("srv_bytes_sent"),
		pings:         r.Counter("srv_pings"),
		shed:          r.Counter("srv_shed_items"),
		shedBytes:     r.Counter("srv_shed_bytes"),
		corruptFrames: r.Counter("srv_corrupt_frames"),
		qoeInstalls:   r.Counter("srv_qoe_scaled_installs"),
		tileBytes:     r.Histogram("srv_tile_bytes"),
		queueLen:      r.Histogram("srv_queue_len"),
	}
}

// counters aggregates send accounting across all connections.
type counters struct {
	primarySent   atomic.Int64
	maskTileSent  atomic.Int64
	maskFullSent  atomic.Int64
	bytesSent     atomic.Int64
	pings         atomic.Int64
	resumes       atomic.Int64
	resumedItems  atomic.Int64
	shedItems     atomic.Int64
	shedBytes     atomic.Int64
	corruptFrames atomic.Int64
	rejectedConns atomic.Int64
	probes        atomic.Int64
	qoeInstalls   atomic.Int64
	stallKills    atomic.Int64
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
	// WriteStallKills counts sessions torn down with ErrWriteStall for
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

// Counters returns a snapshot of the server's send accounting.
func (s *Server) Counters() Counters {
	return Counters{
		PrimarySent:       s.ctr.primarySent.Load(),
		MaskTileSent:      s.ctr.maskTileSent.Load(),
		MaskFullSent:      s.ctr.maskFullSent.Load(),
		BytesSent:         s.ctr.bytesSent.Load(),
		Pings:             s.ctr.pings.Load(),
		Resumes:           s.ctr.resumes.Load(),
		ResumedItems:      s.ctr.resumedItems.Load(),
		ShedItems:         s.ctr.shedItems.Load(),
		ShedBytes:         s.ctr.shedBytes.Load(),
		CorruptFrames:     s.ctr.corruptFrames.Load(),
		RejectedConns:     s.ctr.rejectedConns.Load(),
		Probes:            s.ctr.probes.Load(),
		QoEScaledInstalls: s.ctr.qoeInstalls.Load(),
		WriteStallKills:   s.ctr.stallKills.Load(),
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

// Draining reports whether the server is refusing new sessions.
func (s *Server) Draining() bool { return s.draining.Load() }

// ActiveConns reports the number of in-flight sessions.
func (s *Server) ActiveConns() int64 { return s.active.Load() }

// noteActive adjusts the in-flight session count and mirrors it to the
// srv_active_conns gauge, returning the new count.
func (s *Server) noteActive(delta int64) int64 {
	n := s.active.Add(delta)
	s.Obs.Gauge("srv_active_conns").Set(float64(n))
	return n
}

// addQueuedBytes adjusts the fleet-visible queued-payload total and
// mirrors it to the srv_queue_bytes gauge. It is the sendState report
// callback: installs add, sends and teardown subtract.
func (s *Server) addQueuedBytes(delta int64) {
	s.Obs.Gauge("srv_queue_bytes").Set(float64(s.queuedBytes.Add(delta)))
}

// QueuedBytes reports the payload bytes currently committed across all
// live fetch queues.
func (s *Server) QueuedBytes() int64 { return s.queuedBytes.Load() }

// New creates a server for the given videos. It warms the shared tile
// store for each manifest here, at load time, so the per-manifest CRC
// framing cost is paid once per process — a cold-restarted server in the
// same process (the crash tests, the fleet balancer's respawns) reuses
// the already-built frames.
func New(manifests ...*video.Manifest) *Server {
	s := &Server{
		manifests: make(map[string]*video.Manifest, len(manifests)),
		stores:    make(map[string]*store.Store, len(manifests)),
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
	s.addQueuedBytes(0)
	// srv_store_bytes is the resident footprint of the shared tile
	// stores — the process-wide cost of serving these manifests to any
	// number of sessions. It is distinct from srv_queue_bytes, which
	// counts pending transmission over shared (not duplicated) buffers.
	var storeBytes int64
	for _, ts := range s.stores {
		storeBytes += ts.MemoryBytes()
	}
	s.Obs.Gauge("srv_store_bytes").Set(float64(storeBytes))
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
		if f := siteAccept.Fault(); f.Active() {
			// Injected accept-path fault: the connection dies (or stalls)
			// between accept and handoff, before any handshake byte.
			// Clients see a closed conn and redial through their normal
			// reconnect path.
			if f.Kind == chaos.FaultDelay {
				time.Sleep(f.Delay)
			} else {
				conn.Close()
				continue
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			if err := s.HandleConnContext(ctx, conn); err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, context.Canceled) {
				s.logf("server: connection ended: %v", err)
			}
		}()
	}
}

// sendState is the per-connection queue shared between the request reader
// and the tile sender.
type sendState struct {
	mu     sync.Mutex
	wake   chan struct{}
	queue  []player.RequestItem
	gen    uint32
	closed bool

	// queuedBytes is the payload total of the installed queue; every
	// change is pushed through report (a delta callback) so the server
	// can keep a cross-connection srv_queue_bytes gauge current.
	queuedBytes int64
	report      func(delta int64)

	sent *player.Sent // the redundancy rule (§3.3)
}

func newSendState(m *video.Manifest) *sendState {
	return &sendState{
		wake:   make(chan struct{}, 1),
		report: func(int64) {},
		sent:   player.NewSent(m),
	}
}

func (st *sendState) signal() {
	select {
	case st.wake <- struct{}{}:
	default:
	}
}

// install replaces the queue if the request is at least as new ("when a new
// request is received, the server discards the previous (older) request").
// Generations compare with serial-number arithmetic so a long-lived session
// survives uint32 wraparound, and an equal generation re-installs — the
// idempotent replay a reconnecting client relies on. It returns how many
// items (and payload bytes) were shed to fit the count and byte budgets.
func (st *sendState) install(r proto.Request, maxQueue int, maxBytes int64, m *video.Manifest) (int, int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed || int32(r.Generation-st.gen) < 0 {
		// Stale (out-of-order) requests are ignored.
		return 0, 0
	}
	st.gen = r.Generation
	items, shed, shedBytes := shedQueue(r.Items, maxQueue, maxBytes, m)
	st.queue = items
	var bytes int64
	for _, it := range items {
		bytes += safeSize(it, m)
	}
	if delta := bytes - st.queuedBytes; delta != 0 {
		st.queuedBytes = bytes
		st.report(delta)
	}
	st.signal()
	return shed, shedBytes
}

// shedQueue drops the lowest-utility entries to fit the count cap and the
// per-session byte budget. Fetch lists are ordered by descending utility
// (the scheme contract), so the tail holds the least valuable items — but
// masking entries are never dropped: they are the continuity floor, and
// they consume budget that primaries then cannot. With a byte budget, an
// oversized primary is shed while smaller lower-utility ones may still
// fit; that is deliberate (more of the viewport covered per byte).
func shedQueue(items []player.RequestItem, max int, maxBytes int64, m *video.Manifest) ([]player.RequestItem, int, int64) {
	overCount := max > 0 && len(items) > max
	if !overCount && maxBytes <= 0 {
		return items, 0, 0
	}
	if !overCount {
		var total int64
		for _, it := range items {
			total += safeSize(it, m)
		}
		if total <= maxBytes {
			return items, 0, 0
		}
	}
	countBudget := max
	if max <= 0 {
		countBudget = len(items)
	}
	byteBudget := maxBytes
	for _, it := range items {
		if it.Stream == player.Masking {
			countBudget--
			if maxBytes > 0 {
				byteBudget -= safeSize(it, m)
			}
		}
	}
	// Masking alone may overrun either cap (it is never shed). Clamp the
	// remaining budgets at zero: a negative byte budget would otherwise
	// fail even the zero-size comparison below and shed malformed items
	// that the contract says always fit the BYTE budget (next() drops
	// them for free; they must not burn shed accounting as real tiles).
	if countBudget < 0 {
		countBudget = 0
	}
	if byteBudget < 0 {
		byteBudget = 0
	}
	kept := make([]player.RequestItem, 0, len(items))
	var shedBytes int64
	for _, it := range items {
		if it.Stream == player.Masking {
			kept = append(kept, it)
			continue
		}
		size := safeSize(it, m)
		if countBudget > 0 && (maxBytes <= 0 || byteBudget >= size) {
			kept = append(kept, it)
			countBudget--
			if maxBytes > 0 {
				byteBudget -= size
			}
			continue
		}
		shedBytes += size
	}
	return kept, len(items) - len(kept), shedBytes
}

// safeSize is RequestItem.Size with bounds checks: request items come off
// the wire, and an out-of-range chunk or tile must shed as zero bytes (the
// sender's next() skips it anyway), not panic the connection handler.
func safeSize(it player.RequestItem, m *video.Manifest) int64 {
	if !it.In(m) {
		return 0
	}
	return it.Size(m)
}

// preload marks the client-held items from a resume summary as already
// sent, restoring the redundancy suppression of the pre-disconnect
// session. It returns the number of entries restored.
func (st *sendState) preload(h player.HeldSummary, _ *video.Manifest) int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.sent.Preload(h)
}

// next pops the next sendable item, applying the redundancy rule, or
// returns false if the queue is (currently) exhausted. done reports the
// connection was closed.
func (st *sendState) next(m *video.Manifest) (it player.RequestItem, ok, done bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for len(st.queue) > 0 {
		it = st.queue[0]
		st.queue = st.queue[1:]
		if !it.In(m) {
			continue // malformed entry: installed as zero bytes, skipped here
		}
		if size := it.Size(m); size > 0 {
			st.queuedBytes -= size
			st.report(-size)
		}
		if st.sent.Admit(it) {
			return it, true, false
		}
	}
	return player.RequestItem{}, false, st.closed
}

func (st *sendState) close() {
	st.mu.Lock()
	st.closed = true
	st.mu.Unlock()
	st.signal()
}

// releaseQueued closes the state and returns its remaining byte
// commitment through the report callback, so a session torn down with a
// non-empty queue (write error, kill) does not leak srv_queue_bytes.
// Installs racing with teardown are ignored by the closed check in
// install, so the gauge cannot drift after release.
func (st *sendState) releaseQueued() {
	st.mu.Lock()
	st.closed = true
	rem := st.queuedBytes
	st.queuedBytes = 0
	if rem != 0 {
		st.report(-rem)
	}
	st.mu.Unlock()
	st.signal()
}

// HandleConnContext runs one streaming session; on ctx cancellation the
// sender drains the queued tiles, sends a Bye, and returns.
func (s *Server) HandleConnContext(ctx context.Context, conn net.Conn) error {
	// Admission control first, before reading a single client byte: a
	// saturated or draining server must shed load instantly, not after a
	// handshake's worth of work. The busy ErrorMsg is typed so resilient
	// clients back off and retry instead of giving up.
	if s.draining.Load() {
		s.ctr.rejectedConns.Add(1)
		s.Obs.Counter("srv_rejected_conns").Inc()
		s.setWriteDeadline(conn)
		_ = proto.WriteError(conn, proto.BusyText("server draining"))
		return fmt.Errorf("server: rejected connection: draining")
	}
	if s.MaxConns > 0 {
		if n := s.noteActive(1); n > int64(s.MaxConns) {
			s.noteActive(-1)
			s.ctr.rejectedConns.Add(1)
			s.Obs.Counter("srv_rejected_conns").Inc()
			s.setWriteDeadline(conn)
			_ = proto.WriteError(conn, proto.BusyText(fmt.Sprintf("connection limit %d reached", s.MaxConns)))
			return fmt.Errorf("server: rejected connection: limit %d reached", s.MaxConns)
		}
	} else {
		s.noteActive(1)
	}
	defer s.noteActive(-1)
	s.setReadDeadline(conn)
	msg, err := proto.ReadMessage(conn)
	if err != nil {
		return fmt.Errorf("server: read hello: %w", err)
	}
	var (
		m      *video.Manifest
		ok     bool
		held   *player.HeldSummary
		cohort string
	)
	switch msg.Type {
	case proto.MsgHello:
		m, ok = s.manifests[msg.Hello.VideoID]
		if !ok {
			_ = proto.WriteError(conn, fmt.Sprintf("unknown video %q", msg.Hello.VideoID))
			return fmt.Errorf("server: unknown video %q", msg.Hello.VideoID)
		}
		cohort = msg.Hello.Cohort
	case proto.MsgResume:
		r := msg.Resume
		if r.Version != proto.ProtoVersion {
			_ = proto.WriteError(conn, fmt.Sprintf("unsupported protocol version %d (want %d)", r.Version, proto.ProtoVersion))
			return fmt.Errorf("server: resume with protocol version %d", r.Version)
		}
		m, ok = s.manifests[r.VideoID]
		if !ok {
			_ = proto.WriteError(conn, fmt.Sprintf("unknown video %q", r.VideoID))
			return fmt.Errorf("server: unknown video %q", r.VideoID)
		}
		if r.Held.NumChunks != m.NumChunks || r.Held.NumTiles != m.NumTiles() {
			_ = proto.WriteError(conn, "resume state does not match video geometry")
			return fmt.Errorf("server: resume geometry %dx%d for %q", r.Held.NumChunks, r.Held.NumTiles, r.VideoID)
		}
		held = &r.Held
		cohort = r.Cohort
	case proto.MsgPing:
		// Health probe (balancer or external checker): answer with a
		// status pong and end the connection. The figure excludes the
		// probe's own admission slot, so an idle server reports zero.
		// A draining or saturated server never reaches here — admission
		// busy-rejects first, which probers read as "alive but
		// unroutable".
		n := s.active.Load() - 1
		if n < 0 {
			n = 0
		}
		s.ctr.probes.Add(1)
		s.Obs.Counter("srv_probes").Inc()
		s.setWriteDeadline(conn)
		if err := proto.WritePong(conn, proto.Pong{Draining: s.draining.Load(), ActiveConns: uint32(n)}); err != nil {
			return fmt.Errorf("server: send pong: %w", err)
		}
		return nil
	default:
		return fmt.Errorf("server: expected hello, got type %d", msg.Type)
	}
	s.setWriteDeadline(conn)
	if err := proto.WriteManifest(conn, m); err != nil {
		return fmt.Errorf("server: send manifest: %w", err)
	}

	co := s.bindConnObs()
	s.Obs.Counter("srv_conns_opened").Inc()
	defer s.Obs.Counter("srv_conns_closed").Inc()

	strace := s.startSessionTrace(m.VideoID, cohort)
	defer strace.flush(s.Logf)

	st := newSendState(m)
	st.report = s.addQueuedBytes
	defer st.releaseQueued()
	if held != nil {
		restored := st.preload(*held, m)
		s.ctr.resumes.Add(1)
		s.ctr.resumedItems.Add(restored)
		s.Obs.Counter("srv_resumes").Inc()
		s.Obs.Counter("srv_resumed_items").Add(restored)
	}
	// Graceful drain: cancellation closes the send state, so the sender
	// flushes what is queued and says goodbye instead of vanishing.
	stopWatch := context.AfterFunc(ctx, st.close)
	defer stopWatch()

	maxQueue := s.MaxQueue
	if maxQueue == 0 {
		maxQueue = DefaultMaxQueue
	}

	// Request reader: installs each new fetch list until the client leaves.
	// The frame body buffer is owned by this loop and recycled across
	// reads (proto.ReadMessageBuf); nothing below retains the message past
	// one iteration — the item slice install keeps is decoded into fresh
	// memory by the proto layer, not aliased into the frame body.
	readErr := make(chan error, 1)
	go func() {
		defer st.close()
		var rbuf []byte
		for {
			s.setReadDeadline(conn)
			var msg *proto.Message
			var err error
			msg, rbuf, err = proto.ReadMessageBuf(conn, rbuf)
			if err != nil {
				if errors.Is(err, proto.ErrChecksum) {
					s.ctr.corruptFrames.Add(1)
					co.corruptFrames.Inc()
				}
				readErr <- err
				return
			}
			switch msg.Type {
			case proto.MsgRequest:
				co.queueLen.Observe(float64(len(msg.Request.Items)))
				// The QoE feedback loop modulates this session's budgets by
				// its cohort's scale, re-read per install so a fresh rollup
				// takes effect within one request interval (~100 ms).
				effQueue, effBytes := maxQueue, s.MaxQueueBytes
				if scale := s.qoeScale(cohort); scale != 1 {
					effQueue, effBytes = scaleBudgets(maxQueue, s.MaxQueueBytes, scale)
					s.ctr.qoeInstalls.Add(1)
					co.qoeInstalls.Inc()
				}
				if shed, shedBytes := st.install(*msg.Request, effQueue, effBytes, m); shed > 0 {
					s.ctr.shedItems.Add(int64(shed))
					s.ctr.shedBytes.Add(shedBytes)
					co.shed.Add(int64(shed))
					co.shedBytes.Add(shedBytes)
					strace.shed(shedBytes)
				}
			case proto.MsgBye:
				readErr <- nil
				return
			default:
				readErr <- fmt.Errorf("server: unexpected message type %d", msg.Type)
				return
			}
		}
	}()

	heartbeat := s.Heartbeat
	if heartbeat == 0 {
		heartbeat = DefaultHeartbeat
	}

	// Tile sender: drains the queue by reference from the shared tile
	// store. A send appends pre-framed (head, payload, trailer) slices to
	// a scratch net.Buffers and flushes the batch with one vectored
	// write — zero per-send serialization or CRC work, zero per-session
	// payload memory. Batching is bounded so one slow client holds at
	// most one batch's worth of deadline, and a new (superseding) request
	// takes effect at the next batch boundary.
	tileStore := s.stores[m.VideoID]
	const (
		maxBatchFrames = 32
		maxBatchBytes  = 1 << 20
	)
	var (
		// scratch accumulates the batch; wire is the slice-header copy the
		// vectored write consumes (net.Buffers.WriteTo reslices the value
		// it runs on to zero capacity — writing through a copy keeps
		// scratch's backing array reusable across batches).
		scratch = make(net.Buffers, 0, 3*maxBatchFrames)
		wire    net.Buffers
		batch   = make([]player.RequestItem, 0, maxBatchFrames)
		sizes   = make([]int64, 0, maxBatchFrames) // payload bytes per frame
		ends    = make([]int64, 0, maxBatchFrames) // cumulative wire offsets
	)
	var idle *time.Timer
	defer func() {
		if idle != nil {
			idle.Stop()
		}
	}()
	// Write-stall (slowloris) accounting: each write is allowed
	// stallThresh of blocking for free; the excess accumulates in
	// stallSpent and exhausting stallBudget kills the session. Metering
	// (the time.Now pair) is skipped entirely when the budget is off, so
	// the default hot path is unchanged.
	stallBudget := s.WriteStallBudget
	stallThresh := stallBudget / 10
	if stallBudget > 0 && stallThresh < time.Millisecond {
		stallThresh = time.Millisecond
	}
	var stallSpent time.Duration
	noteStall := func(d time.Duration) error {
		if d <= stallThresh {
			return nil
		}
		stallSpent += d - stallThresh
		if stallSpent <= stallBudget {
			return nil
		}
		st.close()
		s.ctr.stallKills.Add(1)
		s.Obs.Counter("srv_write_stall_kills").Inc()
		return ErrWriteStall
	}
	for {
		it, ok, done := st.next(m)
		if done {
			break
		}
		if !ok {
			if heartbeat > 0 {
				if idle == nil {
					idle = time.NewTimer(heartbeat)
				} else {
					idle.Reset(heartbeat)
				}
				select {
				case <-st.wake:
					if !idle.Stop() {
						<-idle.C
					}
				case <-idle.C:
					s.setWriteDeadline(conn)
					var start time.Time
					if stallBudget > 0 {
						start = time.Now()
					}
					if err := proto.WritePing(conn); err != nil {
						st.close()
						return fmt.Errorf("server: send ping: %w", err)
					}
					if stallBudget > 0 {
						if err := noteStall(time.Since(start)); err != nil {
							return fmt.Errorf("server: send ping: %w", err)
						}
					}
					s.ctr.pings.Add(1)
					co.pings.Inc()
				}
			} else {
				<-st.wake
			}
			continue
		}
		// Gather: the popped item plus whatever is immediately sendable,
		// up to the batch caps. Items the store cannot serve (beyond the
		// frame cap, or a full-360° requested on the primary stream) are
		// skipped, mirroring next()'s treatment of malformed entries.
		scratch = scratch[:0]
		batch = batch[:0]
		sizes = sizes[:0]
		ends = ends[:0]
		var wireBytes int64
		drained := false
		for {
			if bufs, fsize, okf := tileStore.AppendFrame(scratch, it); okf {
				scratch = bufs
				wireBytes += fsize
				batch = append(batch, it)
				sizes = append(sizes, fsize-proto.TileFrameOverhead)
				ends = append(ends, wireBytes)
			}
			if len(batch) >= maxBatchFrames || wireBytes >= maxBatchBytes {
				break
			}
			if it, ok, done = st.next(m); !ok {
				drained = done
				break
			}
		}
		if len(batch) > 0 {
			s.setWriteDeadline(conn)
			wire = scratch
			var start time.Time
			if stallBudget > 0 {
				start = time.Now()
			}
			n, err := writeBatch(conn, wire)
			// Credit only frames the connection fully accepted; on a
			// partial write the torn tail was never delivered, and the
			// dedup invariants the chaos tests pin are send upper bounds.
			sent := 0
			for sent < len(ends) && ends[sent] <= n {
				sent++
			}
			for i := 0; i < sent; i++ {
				switch fr := batch[i]; {
				case fr.Stream == player.Primary:
					s.ctr.primarySent.Add(1)
					co.primary.Inc()
				case fr.Full360:
					s.ctr.maskFullSent.Add(1)
					co.maskFull.Inc()
				default:
					s.ctr.maskTileSent.Add(1)
					co.maskTile.Inc()
				}
				s.ctr.bytesSent.Add(sizes[i])
				co.bytes.Add(sizes[i])
				co.tileBytes.Observe(float64(sizes[i]))
			}
			if err != nil {
				st.close()
				return fmt.Errorf("server: send tile: %w", err)
			}
			if stallBudget > 0 {
				if err := noteStall(time.Since(start)); err != nil {
					return fmt.Errorf("server: send tile: %w", err)
				}
			}
		}
		if drained {
			break
		}
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

// ListenAndServe listens on addr and serves until ctx is done.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", addr, err)
	}
	log.Printf("dragonfly server listening on %s (videos: %v)", l.Addr(), s.Videos())
	return s.Serve(ctx, l)
}
