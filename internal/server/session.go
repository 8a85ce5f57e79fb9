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

// session is everything one streaming session decides (§3.3: a new request
// supersedes the old one, a transmitted primary tile is never re-sent,
// masking is never shed), with no socket and no clock in it. The shell in
// server.go owns those and calls in: open, then request from its reader and
// nextBatch / wrote / pinged from its sender, then release. Durations come
// in as arguments; what to do next goes out as return values. Only the
// queue (under mu) is shared by the two sides; the batch and the stall
// meter are the sender's alone.
type session struct {
	srv    *Server
	m      *video.Manifest
	tiles  *store.Store
	cohort string
	trace  *sessionTrace
	stall  proto.StallMeter

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
	queue       []player.RequestItem
	gen         uint32
	closed      bool
	queuedBytes int64              // payload total of queue, mirrored into srv.queuedBytes
	sent        player.HeldSummary // what was sent or resumed: the redundancy rule's state (§3.3)

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
		sent:    player.NewHeldSummary(m),
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

// setQueued moves the session's byte commitment to n, and the server-wide
// total (and its srv_queue_bytes gauge) by the same delta. Callers hold mu.
func (ss *session) setQueued(n int64) {
	if delta := n - ss.queuedBytes; delta != 0 {
		ss.queuedBytes = n
		ss.queueBytes.Set(float64(ss.srv.queuedBytes.Add(delta)))
	}
}

// request installs a fetch list under the session's budgets. The QoE
// feedback loop scales them by the cohort's factor, re-read per request so
// a fresh rollup takes effect within one request interval (~100 ms).
func (ss *session) request(r proto.Request) {
	s := ss.srv
	ss.queueLen.Observe(float64(len(r.Items)))
	maxQueue, maxBytes := s.MaxQueue, s.MaxQueueBytes
	if maxQueue == 0 {
		maxQueue = DefaultMaxQueue
	}
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

// install replaces the queue if the request is at least as new ("when a new
// request is received, the server discards the previous (older) request").
// Generations compare with serial-number arithmetic so a long-lived session
// survives uint32 wraparound, and an equal generation re-installs — the
// idempotent replay a reconnecting client relies on. It returns how many
// items (and payload bytes) were shed to fit the count and byte budgets.
func (ss *session) install(r proto.Request, maxQueue int, maxBytes int64) (int, int64) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed || int32(r.Generation-ss.gen) < 0 {
		// Stale (out-of-order) requests are ignored.
		return 0, 0
	}
	ss.gen = r.Generation
	items, shed, shedBytes := shedQueue(r.Items, maxQueue, maxBytes, ss.m)
	ss.queue = items
	var bytes int64
	for _, it := range items {
		bytes += safeSize(it, ss.m)
	}
	ss.setQueued(bytes)
	ss.signal()
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

// preload merges a resume summary into the session's sent state, restoring
// the redundancy suppression of the pre-disconnect session. It returns the
// number of entries restored.
func (ss *session) preload(h player.HeldSummary) int64 {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.sent.Merge(h)
}

// next pops the next sendable item, applying the redundancy rule, or
// returns false if the queue is (currently) exhausted. done reports the
// session was closed.
func (ss *session) next() (it player.RequestItem, ok, done bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for len(ss.queue) > 0 {
		it = ss.queue[0]
		ss.queue = ss.queue[1:]
		if !it.In(ss.m) {
			continue // malformed entry: installed as zero bytes, skipped here
		}
		ss.setQueued(ss.queuedBytes - it.Size(ss.m))
		if ss.sent.Admit(it) {
			return it, true, false
		}
	}
	return player.RequestItem{}, false, ss.closed
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
	ss.queue = nil
	ss.setQueued(0)
	ss.mu.Unlock()
	ss.trace.flush(ss.srv.Logf)
	ss.srv.Obs.Counter("srv_conns_closed").Inc()
}
