package player

import (
	"errors"
	"sync"
	"time"

	"dragonfly/internal/decoder"
	"dragonfly/internal/geom"
	"dragonfly/internal/obs"
	"dragonfly/internal/predict"
	"dragonfly/internal/quality"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// Config describes one streaming session: a scheme playing one video for
// one user. Run additionally needs Bandwidth (its modelled link) and
// honours Decoder; a driver with a real link leaves both unset.
type Config struct {
	Manifest  *video.Manifest
	Head      *trace.HeadTrace
	Bandwidth *trace.BandwidthTrace
	Scheme    Scheme

	// Metric drives both scheduling (through Context) and evaluation.
	Metric quality.Metric

	// PredictErrorDeg injects uniform orientation noise into the predictor's
	// observations (the Figs 21–23 sensitivity methodology); 0 disables.
	PredictErrorDeg  float64
	PredictErrorSeed int64

	// Decoder optionally models the client's media-decode stage: delivered
	// tiles become renderable only once decoded (nil = infinitely fast, as
	// the paper's testbed provisions).
	Decoder *decoder.Model

	// MaskInterpolation enables the §3.2 future-work optimization: holes
	// with no masking tile are synthesized from neighboring masking tiles.
	MaskInterpolation bool

	// Trace, when non-nil, receives structured session events (decisions,
	// fetches, skips, masks, stalls) for JSONL export. Nil disables tracing
	// at the cost of one branch per event.
	Trace *obs.Trace

	// MaxWall caps session wall time against pathological stalls
	// (default: 3x the video duration plus 30 s).
	MaxWall time.Duration
}

// Playback is the session state machine of §3.3, written once: playback
// position and stall state, the control-event schedule (head samples,
// decision epochs, frame deadlines), both predictors, the received-tile
// state and the §4.1 accounting, with every trace event they emit. It owns
// neither a clock nor a link. A driver supplies both and steps it with one
// protocol — report what the link delivered, then Advance to the current
// instant:
//
//	for !p.Over(now) {
//		// let now reach p.NextEvent() or the next delivery, whichever
//		// comes first, and Deliver what arrived
//		if fetch, decided := p.Advance(now); decided {
//			// fetch replaces the outstanding request
//		}
//	}
//	metrics := p.Finish(now)
//
// Run drives it with a virtual clock and a trace-driven link model,
// internal/client with the wall clock and a real connection, so both
// paths have the same playback semantics by construction. A Playback is
// not safe for concurrent use: a driver with several goroutines
// serializes its calls (the client does, under the session mutex).
type Playback struct {
	cfg      Config
	m        *video.Manifest
	grid     *geom.Grid
	frameDur time.Duration
	interval time.Duration
	policy   StallPolicy

	now time.Duration // instant of the latest Advance

	playFrame   int
	nextFrameAt time.Duration
	stalled     bool // startup wait or rebuffering stall
	startup     bool
	stallStart  time.Duration

	nextHead     time.Duration
	nextDecision time.Duration

	received *Received
	acct     *accountant
	store    *storage // what received and acct are carved from, and the delivery log

	vpPred *predict.Viewport
	bwPred *predict.Bandwidth

	// Reusable scratch: decide refills ctx in place — its invariant fields
	// and the two method values, which would otherwise allocate on every
	// decision, are bound once — and viewport refills vpTiles/vpWeights.
	ctx       Context
	vpTiles   []geom.TileID
	vpWeights []float64

	met *Metrics
}

// storage is a session's manifest-sized state: Received's three arrival
// maps as one array, the accountant's two render bitmaps as one, the
// delivery log and the Context's two fetch-list buffers. NewPlayback
// borrows a set from storagePool and Finish gives it back, so back-to-back
// sessions over one manifest size it once; the pool empties itself across
// garbage collections.
type storage struct {
	arrivals   []time.Duration
	rendered   []bool
	deliveries []delivery
	fetch      [2][]RequestItem
}

var storagePool = sync.Pool{New: func() any { return new(storage) }}

// resize returns s with length n, reusing its capacity. Contents are
// undefined.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// NewPlayback validates cfg, applies its defaults and returns a session
// waiting for its first frame at instant zero.
func NewPlayback(cfg Config) (*Playback, error) {
	if cfg.Manifest == nil || cfg.Head == nil || cfg.Scheme == nil {
		return nil, errors.New("player: config requires Manifest, Head and Scheme")
	}
	if len(cfg.Head.Samples) == 0 || cfg.Head.SamplePeriod <= 0 {
		// A zero-length head trace would wedge the driver (the head
		// schedule never advances) and poison every ratio downstream.
		return nil, errors.New("player: head trace needs samples and a positive sample period")
	}
	m := cfg.Manifest
	if cfg.MaxWall == 0 {
		videoDur := time.Duration(m.NumFrames()) * time.Second / time.Duration(m.FPS)
		cfg.MaxWall = 3*videoDur + 30*time.Second
	}
	st := storagePool.Get().(*storage)
	st.arrivals = resize(st.arrivals, arrivalsLen(m))
	st.rendered = resize(st.rendered, renderedLen(m))
	st.deliveries = st.deliveries[:0]
	p := &Playback{
		cfg:      cfg,
		m:        m,
		grid:     m.Grid(),
		frameDur: time.Second / time.Duration(m.FPS),
		interval: cfg.Scheme.DecisionInterval(),
		policy:   cfg.Scheme.StallPolicy(),
		stalled:  true,
		startup:  true,
		received: newReceived(m, st.arrivals),
		store:    st,
		bwPred:   predict.NewBandwidth(0),
		met: &Metrics{
			SchemeName: cfg.Scheme.Name(),
			VideoID:    m.VideoID,
			UserID:     cfg.Head.UserID,
		},
	}
	if p.interval <= 0 {
		p.interval = 100 * time.Millisecond
	}
	p.acct = newAccountant(m, p.grid, cfg.Metric, p.met, st.rendered)
	p.acct.interpolate = cfg.MaskInterpolation
	if cfg.PredictErrorDeg > 0 {
		p.vpPred = predict.NewViewportWithError(0, cfg.PredictErrorDeg, cfg.PredictErrorSeed)
	} else {
		p.vpPred = predict.NewViewport(0)
	}
	p.ctx = Context{
		Manifest:      m,
		Grid:          p.grid,
		Viewport:      geom.DefaultViewport,
		Received:      p.received,
		Predict:       p.vpPred.Predict,
		FrameDuration: p.frameDur,
		FrameDeadline: p.frameDeadline,
		lists:         st.fetch,
	}
	return p, nil
}

// Metrics returns the session's metrics while it runs, for the counters
// that are the driver's to keep (disconnects, corrupt tiles); Finish
// completes them.
func (p *Playback) Metrics() *Metrics { return p.met }

// Held snapshots which tiles the session holds, for a resume handshake.
func (p *Playback) Held() HeldSummary { return p.received.summary() }

// played reports whether the last frame has rendered.
func (p *Playback) played() bool { return p.playFrame >= p.m.NumFrames() }

// Over reports whether the session has ended by instant now: every frame
// has rendered, or MaxWall has passed — which marks the session Truncated
// and closes an open stall into RebufferDuration.
func (p *Playback) Over(now time.Duration) bool {
	if p.played() {
		return true
	}
	if now < p.cfg.MaxWall {
		return false
	}
	p.met.Truncated = true
	if p.stalled && !p.startup {
		p.met.RebufferDuration += now - p.stallStart
		p.stalled = false
	}
	return true
}

// NextEvent returns the latest instant the driver may let pass before it
// calls Advance: the earliest of the next head sample, the next decision
// epoch and (unless stalled) the next frame deadline, capped at MaxWall.
// Once the last frame has rendered nothing is left to wait for and it
// returns the instant of that Advance.
func (p *Playback) NextEvent() time.Duration {
	if p.played() {
		return p.now
	}
	t := min(p.nextHead, p.nextDecision, p.cfg.MaxWall)
	if !p.stalled {
		t = min(t, p.nextFrameAt)
	}
	return t
}

// Advance brings the session to instant now: it feeds the viewport
// predictor the head samples that have come due, ends a stall (or the
// startup wait) the deliveries so far have satisfied, runs the scheme if a
// decision epoch is due and renders — or stalls on — the frame whose
// deadline has passed. It renders at most one frame per call, scheduling
// the next a frame after now: a driver that arrives late skips no frame
// and bursts none. When decided is true, fetch replaces the outstanding
// request; it may alias the session's storage and stays valid through the
// next decision.
func (p *Playback) Advance(now time.Duration) (fetch []RequestItem, decided bool) {
	p.now = now
	for now >= p.nextHead {
		p.vpPred.Observe(p.nextHead, p.cfg.Head.At(p.nextHead))
		p.nextHead += p.cfg.Head.SamplePeriod
	}
	p.tryResume()
	if now >= p.nextDecision {
		fetch, decided = p.decide(), true
		p.nextDecision = now + p.interval
	}
	if !p.stalled && now >= p.nextFrameAt && !p.played() {
		p.renderOrStall()
	}
	return fetch, decided
}

// Deliver records a tile that arrived intact at instant now after
// occupying the link for elapsed (the throughput sample; non-positive
// means unknown). The item must be In the manifest — a driver that reads
// items off a wire checks before it delivers. The tile becomes renderable
// at renderableAt: now, unless the driver models a decode stage. Whether
// it ends a stall is decided by the next Advance.
func (p *Playback) Deliver(now time.Duration, it RequestItem, bytes int64, elapsed, renderableAt time.Duration) {
	p.received.Record(it, renderableAt)
	p.store.deliveries = append(p.store.deliveries, delivery{
		bytes: bytes, chunk: int32(it.Chunk), tile: int32(it.Tile),
		quality: uint8(it.Quality), stream: it.Stream, full360: it.Full360,
	})
	p.Transferred(bytes, elapsed)
	p.cfg.Trace.Add(obs.Event{At: now, Kind: obs.EvFetch, Chunk: it.Chunk, Tile: int(it.Tile), N: bytes})
}

// Transferred accounts bytes that crossed the link in elapsed but yielded
// no tile (a payload that failed verification): they count as received
// and feed the throughput estimate, and nothing is held.
func (p *Playback) Transferred(bytes int64, elapsed time.Duration) {
	p.met.BytesReceived += bytes
	p.bwPred.ObserveTransfer(bytes, elapsed)
}

// Finish closes the session at instant now: durations and the wastage
// accounting of §4.1. It hands the session's storage on to the next
// NewPlayback, so the Playback must not be used afterwards: whatever then
// reads or records tiles (Held, Deliver, a render, a second Finish) panics
// rather than touch another session's.
func (p *Playback) Finish(now time.Duration) *Metrics {
	p.met.WallDuration = now
	p.met.PlayDuration = time.Duration(p.met.TotalFrames) * p.frameDur
	p.acct.finishWastage(p.store.deliveries)
	p.store.fetch, p.ctx.lists = p.ctx.lists, [2][]RequestItem{}
	storagePool.Put(p.store)
	p.store = nil
	p.received.primaryAt, p.received.maskTileAt, p.received.maskFullAt = nil, nil, nil
	p.acct.renderedPrimaryQ, p.acct.renderedMasking = nil, nil
	return p.met
}

// assumedStartMbps seeds scheduling before any throughput sample exists.
const assumedStartMbps = 5

func (p *Playback) decide() []RequestItem {
	mbps := p.bwPred.PredictMbps()
	if mbps <= 0 {
		mbps = assumedStartMbps
	}
	p.ctx.Now = p.now
	p.ctx.PlayFrame = p.playFrame
	p.ctx.Stalled = p.stalled
	p.ctx.PredictedMbps = mbps
	fetch := p.cfg.Scheme.Decide(&p.ctx)
	p.cfg.Trace.Record(p.now, obs.EvDecide, int64(len(fetch)))
	return fetch
}

// frameDeadline estimates when the given frame starts rendering, assuming
// no further stalls.
func (p *Playback) frameDeadline(frame int) time.Duration {
	base := p.nextFrameAt
	if p.stalled {
		base = p.now
	}
	return base + time.Duration(frame-p.playFrame)*p.frameDur
}

// startupGrace caps how long a continuous-playback (NeverStall) scheme
// waits for its first frame: after this, playback begins even with missing
// tiles, matching the skip discipline.
const startupGrace = time.Second

// viewport walks the viewport cap at p.now: the tiles it touches and each
// one's solid-angle weight inside it. The stall check and the render
// accounting of one instant look at the same cap, so renderOrStall and
// tryResume walk it once and hand the result to both.
func (p *Playback) viewport() ([]geom.TileID, []float64) {
	p.vpTiles, p.vpWeights = p.grid.AppendCapWeights(p.vpTiles[:0], p.vpWeights[:0], p.cfg.Head.At(p.now), geom.DefaultViewport.RadiusDeg)
	return p.vpTiles, p.vpWeights
}

// requirementMet checks the stall policy against the viewport tiles at
// p.now: may the frame of the given chunk render? Startup (the wait for the
// first frame) holds every scheme to "some renderable version of every
// tile".
func (p *Playback) requirementMet(chunk int, vpTiles []geom.TileID) bool {
	if p.startup && p.policy == NeverStall && p.now >= startupGrace {
		return true
	}
	for _, id := range vpTiles {
		switch {
		case p.startup || p.policy == StallOnMissingAny:
			_, okP := p.received.bestPrimaryBy(chunk, id, p.now)
			if !okP && !p.received.hasMaskingBy(chunk, id, p.now) {
				return false
			}
		case p.policy == StallOnMissingMasking:
			if !p.received.hasMaskingBy(chunk, id, p.now) {
				return false
			}
		}
	}
	return true
}

// tryResume ends a stall (or the startup wait) once the current viewport is
// renderable again.
func (p *Playback) tryResume() {
	if !p.stalled {
		return
	}
	ids, weights := p.viewport()
	if !p.requirementMet(p.m.ChunkOfFrame(p.playFrame), ids) {
		return
	}
	if p.startup {
		p.met.StartupDelay = p.now
		p.startup = false
		p.cfg.Trace.Record(p.now, obs.EvStartup, int64(p.now/time.Millisecond))
	} else {
		p.met.RebufferDuration += p.now - p.stallStart
		p.met.StallIntervals = append(p.met.StallIntervals, StallInterval{Start: p.stallStart, End: p.now})
		p.cfg.Trace.Record(p.now, obs.EvResume, int64((p.now-p.stallStart)/time.Millisecond))
	}
	p.stalled = false
	p.renderFrame(ids, weights)
}

// renderOrStall runs at a frame deadline: render it, or enter a stall if
// the policy demands complete viewports.
func (p *Playback) renderOrStall() {
	chunk := p.m.ChunkOfFrame(p.playFrame)
	ids, weights := p.viewport()
	if p.policy != NeverStall && !p.requirementMet(chunk, ids) {
		p.stalled = true
		p.stallStart = p.now
		p.met.StallEvents++
		p.cfg.Trace.Add(obs.Event{At: p.now, Kind: obs.EvStall, Chunk: chunk})
		return
	}
	p.renderFrame(ids, weights)
}

// renderFrame renders playFrame at p.now, seen through the viewport tiles
// and weights of that instant, and advances playback.
func (p *Playback) renderFrame(ids []geom.TileID, weights []float64) {
	chunk := p.m.ChunkOfFrame(p.playFrame)
	skips, masks, blanks := p.met.PrimarySkipFrames, p.met.RenderedMasking, p.met.RenderedBlank
	p.acct.renderFrame(chunk, ids, weights, p.received, p.now)
	if p.cfg.Trace != nil {
		// Per-frame display events, derived from the accountant's deltas.
		if n := len(p.met.FrameScore); n > 0 {
			p.cfg.Trace.Add(obs.Event{At: p.now, Kind: obs.EvQuality, Chunk: chunk, N: int64(p.met.FrameScore[n-1] * 100)})
		}
		if p.met.PrimarySkipFrames > skips {
			p.cfg.Trace.Add(obs.Event{At: p.now, Kind: obs.EvSkip, Chunk: chunk})
		}
		if d := p.met.RenderedMasking - masks; d > 0 {
			p.cfg.Trace.Add(obs.Event{At: p.now, Kind: obs.EvMask, Chunk: chunk, N: d})
		}
		if d := p.met.RenderedBlank - blanks; d > 0 {
			p.cfg.Trace.Add(obs.Event{At: p.now, Kind: obs.EvBlank, Chunk: chunk, N: d})
		}
	}
	p.playFrame++
	p.nextFrameAt = p.now + p.frameDur
}
