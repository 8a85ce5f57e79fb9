package server

import (
	"fmt"
	"net"
	"sync"
	"time"

	"dragonfly/internal/obs"
	"dragonfly/internal/player"
	"dragonfly/internal/proto"
	"dragonfly/internal/store"
	"dragonfly/internal/video"
)

// A batch is bounded so one slow client holds at most one batch's worth of
// write deadline, and a superseding request takes effect at the next batch
// boundary.
const (
	maxBatchFrames = 32
	maxBatchBytes  = 1 << 20
)

// session is one streaming session with no socket and no clock in it: the
// §3.3 send queue (player.SendQueue, the one player.Run's modelled server
// runs) under a lock, with the server's budgets, metrics, trace and
// batching around it. The shell in server.go owns the socket and the clock
// and calls in: open, then request from its reader and nextBatch / wrote /
// pinged from its sender, then release. Durations come in as arguments;
// what to do next goes out as return values. Only the queue (under mu) is
// shared by the two sides; the batch and the stall meter are the sender's
// alone.
type session struct {
	srv   *Server
	m     *video.Manifest
	tiles *store.Store
	// manifest is the sealed manifest frame the session was opened with,
	// held until release: the store keeps it only while a session does.
	manifest []byte
	cohort   string
	trace    *sessionTrace
	stall    proto.StallMeter

	// The registry metrics, resolved once per session so the send loop
	// updates them with plain atomics, no map lookups.
	primary, maskTile, maskFull *obs.Counter
	bytes, pings, shed          *obs.Counter
	shedBytes, corruptFrames    *obs.Counter
	qoeInstalls                 *obs.Counter
	tileBytes, queueLen         *obs.Histogram
	queueBytes                  *obs.Gauge

	mu          sync.Mutex
	wake        chan struct{}
	queue       player.SendQueue
	closed      bool
	queuedBytes int64 // the queue's payload total as last mirrored into srv.queuedBytes

	// The batch nextBatch gathered last: scratch is its wire form, ends the
	// cumulative wire offset after each frame, for wrote to credit by.
	scratch net.Buffers
	batch   []player.RequestItem
	ends    []int64
}

func newSession(s *Server, m *video.Manifest, cohort string) *session {
	r := s.Obs
	return &session{
		srv:    s,
		m:      m,
		tiles:  s.stores[m.VideoID],
		cohort: cohort,
		stall:  proto.NewStallMeter(s.WriteStallBudget),

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
		queueBytes:    r.Gauge("srv_queue_bytes"),

		wake:    make(chan struct{}, 1),
		queue:   player.NewSendQueue(m),
		scratch: make(net.Buffers, 0, 3*maxBatchFrames),
		batch:   make([]player.RequestItem, 0, maxBatchFrames),
		ends:    make([]int64, 0, maxBatchFrames),
	}
}

// open validates a connection's first message. A hello or resume for a
// video the server has yields the live session, whose manifest is the
// reply; a ping is a health probe, answered with the status pong alone;
// anything else is an error, with the text to tell the peer if any.
func (s *Server) open(first *proto.Message) (ss *session, pong *proto.Pong, refuse string, err error) {
	var videoID, cohort string
	var held *player.HeldSummary
	switch first.Type {
	case proto.MsgHello:
		videoID, cohort = first.Hello.VideoID, first.Hello.Cohort
	case proto.MsgResume:
		r := first.Resume
		if r.Version != proto.ProtoVersion {
			return nil, nil, fmt.Sprintf("unsupported protocol version %d (want %d)", r.Version, proto.ProtoVersion),
				fmt.Errorf("server: resume with protocol version %d", r.Version)
		}
		videoID, cohort, held = r.VideoID, r.Cohort, &r.Held
	case proto.MsgPing:
		// The figure excludes the probe's own admission slot, so an idle
		// server reports zero. A draining or saturated server never gets
		// here — admission busy-rejects first, which probers read as
		// "alive but unroutable".
		s.Obs.Counter("srv_probes").Inc()
		n := max(s.active.Load()-1, 0)
		return nil, &proto.Pong{Draining: s.draining.Load(), ActiveConns: uint32(n),
			QueueBytes: uint64(s.queuedBytes.Load())}, "", nil
	default:
		return nil, nil, "", fmt.Errorf("server: expected hello, got type %d", first.Type)
	}
	m, ok := s.manifests[videoID]
	if !ok {
		refuse = fmt.Sprintf("unknown video %q", videoID)
		return nil, nil, refuse, fmt.Errorf("server: %s", refuse)
	}
	if held != nil && (held.NumChunks != m.NumChunks || held.NumTiles != m.NumTiles()) {
		return nil, nil, "resume state does not match video geometry",
			fmt.Errorf("server: resume geometry %dx%d for %q", held.NumChunks, held.NumTiles, videoID)
	}
	ss = newSession(s, m, cohort)
	s.Obs.Counter("srv_conns_opened").Inc()
	ss.trace = s.startSessionTrace(videoID, cohort)
	if held != nil {
		s.Obs.Counter("srv_resumes").Inc()
		s.Obs.Counter("srv_resumed_items").Add(ss.preload(*held))
	}
	return ss, nil, "", nil
}

func (ss *session) signal() {
	select {
	case ss.wake <- struct{}{}:
	default:
	}
}

// mirror moves srv.queuedBytes (and the srv_queue_bytes gauge) by the
// queue's change in payload total since the last call. Callers hold mu.
func (ss *session) mirror() {
	n := ss.queue.Queued()
	ss.queueBytes.Set(float64(ss.srv.queuedBytes.Add(n - ss.queuedBytes)))
	ss.queuedBytes = n
}

// request installs a fetch list under the session's budgets. The QoE
// feedback loop scales them by the cohort's factor, re-read per request so
// a fresh rollup takes effect within one request interval (~100 ms).
func (ss *session) request(r proto.Request) {
	s := ss.srv
	ss.queueLen.Observe(float64(len(r.Items)))
	maxQueue, maxBytes := DefaultMaxQueue, s.MaxQueueBytes
	if scale := s.qoeScale(ss.cohort); scale != 1 {
		maxQueue, maxBytes = scaleBudgets(maxQueue, maxBytes, scale)
		ss.qoeInstalls.Inc()
	}
	if shed, shedBytes := ss.install(r, maxQueue, maxBytes); shed > 0 {
		ss.shed.Add(int64(shed))
		ss.shedBytes.Add(shedBytes)
		ss.trace.shed(shedBytes)
	}
}

// install is SendQueue.Install on an open session: it returns how many
// items and payload bytes were shed.
func (ss *session) install(r proto.Request, maxQueue int, maxBytes int64) (int, int64) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return 0, 0
	}
	shed, shedBytes := ss.queue.Install(r.Generation, r.Items, maxQueue, maxBytes)
	ss.mirror()
	ss.signal()
	return shed, shedBytes
}

// preload merges a resume summary into the queue, restoring the redundancy
// suppression of the pre-disconnect session, and returns the entries new.
func (ss *session) preload(h player.HeldSummary) int64 {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.queue.Merge(h)
}

// next pops the next sendable item, or returns false if the queue is
// (currently) exhausted. done reports the session was closed.
func (ss *session) next() (it player.RequestItem, ok, done bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	it, ok = ss.queue.Pop()
	ss.mirror()
	return it, ok, !ok && ss.closed
}

// nextBatch gathers what is sendable right now, up to the batch caps, by
// reference from the shared tile store: zero per-send serialization or CRC
// work, zero per-session payload memory. An empty batch that is not done
// means idle — the sender waits on wake; done means closed and flushed, and
// the batch returned with it is the last. Items the store cannot serve
// (beyond the frame cap, or a full-360° on the primary stream) are skipped,
// as next skips malformed entries.
func (ss *session) nextBatch() (wire net.Buffers, done bool) {
	ss.scratch, ss.batch, ss.ends = ss.scratch[:0], ss.batch[:0], ss.ends[:0]
	var wireBytes int64
	for len(ss.batch) < maxBatchFrames && wireBytes < maxBatchBytes {
		it, ok, closed := ss.next()
		if !ok {
			done = closed
			break
		}
		if bufs, fsize, ok := ss.tiles.AppendFrame(ss.scratch, it); ok {
			ss.scratch = bufs
			wireBytes += fsize
			ss.batch = append(ss.batch, it)
			ss.ends = append(ss.ends, wireBytes)
		}
	}
	return ss.scratch, done
}

// wrote accounts for the write of the last batch: n bytes accepted in
// elapsed, werr if it failed. Only frames the connection fully accepted
// are credited — a torn tail was never delivered, and the dedup invariants
// the chaos tests pin are send upper bounds — and a write that succeeded is
// then charged to the stall budget.
func (ss *session) wrote(n int64, elapsed time.Duration, werr error) error {
	var prev int64
	for i, end := range ss.ends {
		if end > n {
			break
		}
		switch fr := ss.batch[i]; {
		case fr.Stream == player.Primary:
			ss.primary.Inc()
		case fr.Full360:
			ss.maskFull.Inc()
		default:
			ss.maskTile.Inc()
		}
		size := end - prev - proto.TileFrameOverhead
		prev = end
		ss.bytes.Add(size)
		ss.tileBytes.Observe(float64(size))
	}
	if werr != nil {
		return fmt.Errorf("server: send tile: %w", werr)
	}
	return ss.charge(elapsed, "tile")
}

// pinged accounts for one idle heartbeat written in elapsed.
func (ss *session) pinged(elapsed time.Duration) error {
	if err := ss.charge(elapsed, "ping"); err != nil {
		return err
	}
	ss.pings.Inc()
	return nil
}

// charge spends one write's blocking time from the stall budget; the
// write that exhausts it kills the session with errWriteStall.
func (ss *session) charge(elapsed time.Duration, what string) error {
	if !ss.stall.Spend(elapsed) {
		return nil
	}
	ss.srv.Obs.Counter("srv_write_stall_kills").Inc()
	return fmt.Errorf("server: send %s: %w", what, errWriteStall)
}

// corruptFrame counts an inbound frame whose CRC trailer did not match.
func (ss *session) corruptFrame() {
	ss.corruptFrames.Inc()
}

// close stops the session taking requests; the sender flushes what is
// queued and nextBatch then reports done.
func (ss *session) close() {
	ss.mu.Lock()
	ss.closed = true
	ss.mu.Unlock()
	ss.signal()
}

// release ends the session on every exit path: closed, its trace flushed,
// and its unsent byte commitment handed back to srv_queue_bytes for good —
// install ignores a request racing the teardown, so the gauge cannot drift.
func (ss *session) release() {
	ss.close()
	ss.mu.Lock()
	ss.queue = player.SendQueue{} // empty, and install refuses a closed session
	ss.mirror()
	ss.mu.Unlock()
	ss.manifest = nil
	ss.trace.flush(ss.srv.Logf)
	ss.srv.Obs.Counter("srv_conns_closed").Inc()
}
