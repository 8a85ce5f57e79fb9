package baseline

import (
	"sort"
	"time"

	"dragonfly/internal/abr"
	"dragonfly/internal/geom"
	"dragonfly/internal/player"
	"dragonfly/internal/quality"
	"dragonfly/internal/video"
)

// PanoOptions configures the Pano baseline.
type PanoOptions struct {
	// Metric selects the quality score Pano maximizes when assigning tile
	// qualities (PSNR by default; §4.3 also evaluates a PSPNR variant).
	Metric quality.Metric
	// Lookahead is how far ahead chunks are committed (3 s default; §4.3
	// evaluates a 1 s variant).
	Lookahead time.Duration
}

// Pano runs a traditional chunk-level ABR, then assigns per-group tile
// qualities maximizing the quality metric within the chunk's budget. It
// transmits the full 360° (non-viewport groups at the lowest quality),
// decides once per chunk, never refines, and stalls on missing tiles
// (Table 1).
//
// A committed chunk is kept as its plan — its groups in emission order,
// each with one quality — over the manifest's TileGroups, and Decide
// re-emits the look-ahead's plans into the Context's FetchList buffer. An
// instance carries per-session state (the plans, sized on the first
// decision) and scratch reused across decisions (the greedy's per-group
// working state), so each session needs its own instance; after the first
// decision, Decide allocates nothing.
type Pano struct {
	opts PanoOptions

	// plans[c] is chunk c's decision: once made it is never revisited
	// (Table 1 "Refine fetch decision: No").
	plans  []chunkPlan
	groups relevanceSorter
}

// chunkPlan is one committed chunk: n groups in emission order, each with
// its index in the chunk's TileGroups and its quality.
type chunkPlan struct {
	n     uint8 // 0 until the chunk is committed
	group [video.DefaultGroupCount]uint8
	q     [video.DefaultGroupCount]uint8
}

// groupState is assignChunk's working state for one tile group.
type groupState struct {
	tiles     []geom.TileID
	relevance float64 // viewport-overlap weight of the group
	q         video.Quality
	index     uint8 // the group's index in the chunk's TileGroups
}

// relevanceSorter orders a chunk's groups by descending relevance;
// sort.Stable keeps ties in sensitivity order. A named type passed by
// pointer keeps the sort allocation-free.
type relevanceSorter struct{ states []groupState }

func (s *relevanceSorter) Len() int      { return len(s.states) }
func (s *relevanceSorter) Swap(i, j int) { s.states[i], s.states[j] = s.states[j], s.states[i] }
func (s *relevanceSorter) Less(i, j int) bool {
	return s.states[i].relevance > s.states[j].relevance
}

// NewPano creates the baseline with the paper's defaults.
func NewPano(opts PanoOptions) *Pano {
	if opts.Lookahead == 0 {
		opts.Lookahead = defaultLookahead
	}
	return &Pano{opts: opts}
}

// Name implements player.Scheme: "Pano", with "-PSPNR" for the PSPNR
// metric and a "-<Lookahead>" suffix when the look-ahead is not the 3 s
// default.
func (p *Pano) Name() string {
	name := "Pano"
	if p.opts.Metric == quality.PSPNR {
		name += "-PSPNR"
	}
	return name + lookaheadSuffix(p.opts.Lookahead)
}

// DecisionInterval implements player.Scheme: decisions are made per chunk.
func (p *Pano) DecisionInterval() time.Duration { return time.Second }

// StallPolicy implements player.Scheme.
func (p *Pano) StallPolicy() player.StallPolicy { return player.StallOnMissingAny }

// Decide implements player.Scheme: commit any newly visible chunks, then
// re-emit all still-relevant items (the engine's server dedupes what has
// already been transmitted).
func (p *Pano) Decide(ctx *player.Context) []player.RequestItem {
	m := ctx.Manifest
	if len(p.plans) != m.NumChunks {
		p.plans = make([]chunkPlan, m.NumChunks)
	}
	nowChunk := m.ChunkOfFrame(ctx.PlayFrame)
	buf := ctx.FetchList()
	items := (*buf)[:0]
	for c, last := nowChunk, ctx.LastChunk(p.opts.Lookahead); c <= last; c++ {
		plan := &p.plans[c]
		if plan.n == 0 {
			p.assignChunk(ctx, c, plan)
		}
		groups := m.TileGroups(c)
		for k := range plan.n {
			q := video.Quality(plan.q[k])
			for _, id := range groups.Group(int(plan.group[k])) {
				items = append(items, player.RequestItem{Stream: player.Primary, Chunk: c, Tile: id, Quality: q})
			}
		}
	}
	*buf = items
	return items
}

// assignChunk makes the one-shot decision for a chunk into plan: group
// tiles by quality sensitivity, start everything at the lowest quality,
// then greedily upgrade the group with the best viewport-weighted quality
// gain per byte until the ABR budget is exhausted.
func (p *Pano) assignChunk(ctx *player.Context, chunk int, plan *chunkPlan) {
	m := ctx.Manifest
	chunkDur := time.Duration(m.ChunkFrames) * ctx.FrameDuration
	budget := abr.ChunkBudget(ctx.PredictedMbps, chunkDur)

	center := ctx.Predict(ctx.ChunkStart(chunk))

	groups := m.TileGroups(chunk)
	states := p.groups.states[:0]
	relevant := geom.NewCapQuery(center, ctx.Viewport.RadiusDeg+10)
	var spent int64
	for i := range groups.Len() {
		gs := groupState{tiles: groups.Group(i), q: video.Lowest, index: uint8(i)}
		for _, id := range gs.tiles {
			gs.relevance += ctx.Grid.OverlapCapQ(id, relevant)
			spent += m.TileSize(chunk, id, video.Lowest)
		}
		states = append(states, gs)
	}
	p.groups.states = states

	// Greedy upgrades: best marginal (relevance-weighted quality gain per
	// extra byte) first.
	for {
		bestIdx, bestGain := -1, 0.0
		var bestCost int64
		for i := range states {
			gs := &states[i]
			if gs.q >= video.Highest || gs.relevance == 0 {
				continue
			}
			var cost int64
			gain := 0.0
			for _, id := range gs.tiles {
				cost += m.TileSize(chunk, id, gs.q+1) - m.TileSize(chunk, id, gs.q)
				gain += quality.TileScore(p.opts.Metric, m, chunk, id, gs.q+1) -
					quality.TileScore(p.opts.Metric, m, chunk, id, gs.q)
			}
			if cost <= 0 {
				continue
			}
			score := gs.relevance * gain / float64(cost)
			if spent+cost <= budget && score > bestGain {
				bestGain = score
				bestIdx = i
				bestCost = cost
			}
		}
		if bestIdx < 0 {
			break
		}
		states[bestIdx].q++
		spent += bestCost
	}

	// Emission order: viewport-relevant groups first, then the rest, all
	// at their assigned qualities (the whole 360° is transmitted).
	sort.Stable(&p.groups)
	plan.n = uint8(len(states))
	for k, gs := range states {
		plan.group[k], plan.q[k] = gs.index, uint8(gs.q)
	}
}
