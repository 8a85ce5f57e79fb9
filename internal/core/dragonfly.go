package core

import (
	"sync"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/obs"
	"dragonfly/internal/player"
	"dragonfly/internal/video"
)

// Dragonfly is the paper's scheme: a masking stream fetched with a long
// look-ahead plus a utility-scheduled primary stream with proactive
// skipping, refined every decision interval.
//
// An instance holds what outlives a decision: its options, its metric
// handles and the session's resolved overlap/score tables. The fetch list
// is built in the Context's FetchList buffer, which the session's storage
// owns. Everything a decision builds and discards (the masking plan, both
// windows and schedulers) is a scratch that Decide borrows from a
// process-wide pool and returns before it does, so it outlives the
// session while nothing of a decision carries into the next. Each session
// still needs its own instance, and Decide must not be called concurrently
// on one — the contract the sim harness follows by building one scheme per
// session.
type Dragonfly struct {
	opts Options

	// met, when SetObs has bound it, receives scheduler metrics:
	// refinement counts, listed/skipped candidate counters and the
	// per-refinement total-utility histogram. Nil disables instrumentation
	// at no cost.
	met *decideMetrics

	tabs sessionTables
}

// scratch is one decision's working storage. Every field is rebuilt from
// the Context by the decision that uses it, so a scratch last used by
// another instance (another session, other Options) decides the same.
type scratch struct {
	plan    maskPlan
	w       window    // primary-stream window
	sched   scheduler // primary-stream scheduler
	mw      window    // masking-stream window (MaskScheduled)
	msched  scheduler // masking-stream scheduler (MaskScheduled)
	tileBuf []geom.TileID
}

// scratchPool holds the scratches between decisions. Steady-state
// decisions take back one that has reached its working size, and the pool
// empties itself across garbage collections.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// New creates a Dragonfly instance (or an ablation variant, per Options).
func New(opts Options) *Dragonfly {
	d := defaultOptions()
	if opts.Metric != d.Metric {
		d.Metric = opts.Metric
	}
	if opts.DecisionInterval != 0 {
		d.DecisionInterval = opts.DecisionInterval
	}
	if len(opts.RoIs.RadiiDeg) != 0 {
		d.RoIs = opts.RoIs
	}
	d.Masking = opts.Masking
	if opts.frameStep > 0 {
		d.frameStep = opts.frameStep
	}
	d.MaskScheduled = opts.MaskScheduled
	d.ExactGeometry = opts.ExactGeometry
	d.Name = opts.Name
	return &Dragonfly{opts: d}
}

// NewDefault creates Dragonfly with the paper's evaluation configuration.
func NewDefault() *Dragonfly { return New(defaultOptions()) }

// decideMetrics are the registry handles Decide updates, resolved once
// per instance so a decision looks nothing up by name.
type decideMetrics struct {
	decisions, candidates, listed, skipped, maskItems *obs.Counter
	utility                                           *obs.Histogram
}

// SetObs attaches a metrics registry after construction. The sim harness
// uses it to wire its sweep-wide registry into factory-built schemes.
func (d *Dragonfly) SetObs(r *obs.Registry) {
	d.met = &decideMetrics{
		decisions:  r.Counter("core_decisions"),
		candidates: r.Counter("core_candidates"),
		listed:     r.Counter("core_listed"),
		skipped:    r.Counter("core_skipped"),
		maskItems:  r.Counter("core_mask_items"),
		utility:    r.Histogram("core_utility"),
	}
}

// Name implements player.Scheme.
func (d *Dragonfly) Name() string {
	if d.opts.Name != "" {
		return d.opts.Name
	}
	return "Dragonfly"
}

// DecisionInterval implements player.Scheme.
func (d *Dragonfly) DecisionInterval() time.Duration { return d.opts.DecisionInterval }

// StallPolicy implements player.Scheme: Dragonfly never stalls (§3).
func (d *Dragonfly) StallPolicy() player.StallPolicy { return player.NeverStall }

// Decide implements player.Scheme. It plans the masking stream over the
// long look-ahead, then runs the utility scheduler for the primary stream
// over the short look-ahead, with the masking backlog counted against the
// bandwidth budget (§3.2's bandwidth split).
//
// The returned slice aliases the Context's FetchList buffer and is valid
// through the next Decide on that Context (see player.Scheme);
// steady-state calls allocate nothing.
func (d *Dragonfly) Decide(ctx *player.Context) []player.RequestItem {
	s := scratchPool.Get().(*scratch)
	items := d.decide(ctx, s)
	scratchPool.Put(s)
	return items
}

// decide is Decide on the scratch s.
func (d *Dragonfly) decide(ctx *player.Context, s *scratch) []player.RequestItem {
	d.tabs.resolve(ctx, d.opts)

	// Masking first (earliest-deadline chunks lead), then the utility-
	// ordered primary fetches.
	buf := ctx.FetchList()
	items := d.appendMasking(ctx, (*buf)[:0], s)

	var maskBytes int64
	for i := range items {
		maskBytes += items[i].Size(ctx.Manifest)
	}
	baseOff := time.Duration(float64(maskBytes) / byteRate(ctx.PredictedMbps) * float64(time.Second))

	s.w.build(ctx, d.opts, &s.plan, &d.tabs)
	s.sched.reset(&s.w, d.opts.minPrimaryQuality(), baseOff)
	list := s.sched.run()

	if m := d.met; m != nil {
		m.decisions.Inc()
		m.candidates.Add(int64(len(s.w.cands)))
		m.listed.Add(int64(len(list)))
		m.skipped.Add(int64(len(s.w.cands) - len(list)))
		m.maskItems.Add(int64(len(items)))
		m.utility.Observe(s.sched.totalUtility())
	}

	for _, e := range list {
		items = append(items, player.RequestItem{
			Stream:  player.Primary,
			Chunk:   e.c.chunk,
			Tile:    e.c.tile,
			Quality: video.Quality(e.q),
		})
	}
	*buf = items
	return items
}

// maskPlan records which (chunk, tile) pairs the masking stream covers in
// the current decision — the scheduler's skip floor. It replaces the
// closure-per-decision predicate with a reusable flat bitmap.
type maskPlan struct {
	mode       maskPlanMode
	firstChunk int
	tiles      int
	set        []bool // [(chunk-firstChunk)*tiles + tile]; planSet only
}

type maskPlanMode int

const (
	planNone maskPlanMode = iota // no masking stream
	planAll                      // full-360: every tile covered
	planSet                      // tiled: bitmap membership
)

// covered reports whether the masking plan includes the tile.
func (p *maskPlan) covered(chunk int, tile geom.TileID) bool {
	switch p.mode {
	case planAll:
		return true
	case planSet:
		rel := chunk - p.firstChunk
		if rel < 0 || rel*p.tiles >= len(p.set) {
			return false
		}
		return p.set[rel*p.tiles+int(tile)]
	default:
		return false
	}
}

// resetSet prepares the bitmap for `chunks` chunks starting at firstChunk,
// reusing the backing array.
func (p *maskPlan) resetSet(firstChunk, chunks, tiles int) {
	p.mode = planSet
	p.firstChunk = firstChunk
	p.tiles = tiles
	n := chunks * tiles
	if cap(p.set) < n {
		p.set = make([]bool, n)
		return
	}
	p.set = p.set[:n]
	for i := range p.set {
		p.set[i] = false
	}
}

// appendMasking appends the needed masking fetches to items and fills
// s.plan with the coverage predicate state.
func (d *Dragonfly) appendMasking(ctx *player.Context, items []player.RequestItem, s *scratch) []player.RequestItem {
	plan := &s.plan
	if d.opts.Masking == MaskNone {
		plan.mode = planNone
		return items
	}
	d.tabs.resolve(ctx, d.opts)
	if d.opts.Masking == MaskTiled && d.opts.MaskScheduled {
		return d.appendMaskingScheduled(ctx, items, s)
	}
	m := ctx.Manifest
	firstChunk := m.ChunkOfFrame(ctx.PlayFrame)
	lastChunk := ctx.LastChunk(maskingLookahead)

	if d.opts.Masking == maskFull360 {
		plan.mode = planAll
		for c := firstChunk; c <= lastChunk; c++ {
			if !ctx.Received.HasFullMasking(c) {
				items = append(items, player.RequestItem{
					Stream: player.Masking, Chunk: c, Full360: true, Quality: video.Lowest,
				})
			}
		}
		return items
	}

	// Tiled masking: fetch tiles within the per-chunk displacement bound
	// around the predicted viewport at the chunk's start (§3.2, §4.5). The
	// cap radius varies continuously per chunk (viewport + displacement), so
	// discovery stays on the exact path rather than building a table plane
	// per radius.
	tiles := m.NumTiles()
	plan.resetSet(firstChunk, lastChunk-firstChunk+1, tiles)
	for c := firstChunk; c <= lastChunk; c++ {
		disp := tiledMaskFallbackDeg
		if c < len(m.MaskDisplacement) && m.MaskDisplacement[c] > 0 {
			disp = m.MaskDisplacement[c]
		}
		radius := ctx.Viewport.RadiusDeg + disp
		center := ctx.Predict(ctx.ChunkStart(c))
		s.tileBuf = ctx.Grid.AppendTilesInCap(s.tileBuf[:0], center, radius)
		rel := c - firstChunk
		for _, id := range s.tileBuf {
			plan.set[rel*tiles+int(id)] = true
			if !ctx.Received.HasMasking(c, id) {
				items = append(items, player.RequestItem{
					Stream: player.Masking, Chunk: c, Tile: id, Quality: video.Lowest,
				})
			}
		}
	}
	return items
}
