package baseline

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"dragonfly/internal/abr"
	"dragonfly/internal/geom"
	"dragonfly/internal/player"
	"dragonfly/internal/quality"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// refPano is Pano as it stood before it kept chunk plans: a GroupTiles
// call per committed chunk, a fresh list of every tile per chunk kept in a
// map, and the look-ahead's lists re-emitted into an instance-owned output.
// Kept verbatim as the oracle for TestPanoMatchesReference.
type refPano struct {
	opts     PanoOptions
	assigned map[int][]player.RequestItem
	items    []player.RequestItem
	groups   refRelevanceSorter
}

type refGroupState struct {
	tiles     []geom.TileID
	relevance float64
	q         video.Quality
}

type refRelevanceSorter struct{ states []refGroupState }

func (s *refRelevanceSorter) Len() int      { return len(s.states) }
func (s *refRelevanceSorter) Swap(i, j int) { s.states[i], s.states[j] = s.states[j], s.states[i] }
func (s *refRelevanceSorter) Less(i, j int) bool {
	return s.states[i].relevance > s.states[j].relevance
}

func newRefPano(opts PanoOptions) *refPano {
	if opts.Lookahead == 0 {
		opts.Lookahead = 3 * time.Second
	}
	return &refPano{opts: opts, assigned: make(map[int][]player.RequestItem)}
}

func (p *refPano) Decide(ctx *player.Context) []player.RequestItem {
	m := ctx.Manifest
	nowChunk := m.ChunkOfFrame(ctx.PlayFrame)
	lastFrame := ctx.PlayFrame + int(p.opts.Lookahead.Seconds()*float64(m.FPS))
	if lastFrame >= m.NumFrames() {
		lastFrame = m.NumFrames() - 1
	}
	for c := nowChunk; c <= m.ChunkOfFrame(lastFrame); c++ {
		if _, done := p.assigned[c]; !done {
			p.assigned[c] = p.assignChunk(ctx, c)
		}
	}
	items := p.items[:0]
	for c := nowChunk; c <= m.ChunkOfFrame(lastFrame); c++ {
		items = append(items, p.assigned[c]...)
	}
	p.items = items
	return items
}

func (p *refPano) assignChunk(ctx *player.Context, chunk int) []player.RequestItem {
	m := ctx.Manifest
	chunkDur := time.Duration(m.ChunkFrames) * ctx.FrameDuration
	budget := abr.ChunkBudget(ctx.PredictedMbps, chunkDur)

	at := ctx.FrameDeadline(m.FirstFrame(chunk))
	if at < ctx.Now {
		at = ctx.Now
	}
	center := ctx.Predict(at)

	groups := video.GroupTiles(m, chunk, video.DefaultGroupCount)
	states := p.groups.states[:0]
	relevant := geom.NewCapQuery(center, ctx.Viewport.RadiusDeg+10)
	var spent int64
	for _, g := range groups {
		gs := refGroupState{tiles: g, q: video.Lowest}
		for _, id := range g {
			gs.relevance += ctx.Grid.OverlapCapQ(id, relevant)
			spent += m.TileSize(chunk, id, video.Lowest)
		}
		states = append(states, gs)
	}
	p.groups.states = states

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

	sort.Stable(&p.groups)
	items := make([]player.RequestItem, 0, m.NumTiles())
	for _, gs := range states {
		for _, id := range gs.tiles {
			items = append(items, player.RequestItem{Stream: player.Primary, Chunk: chunk, Tile: id, Quality: gs.q})
		}
	}
	return items
}

// panoPair decides with both the reference and the new Pano on every
// Context a session hands it, fails the test at the first list that
// differs, and plays the new one's.
type panoPair struct {
	*Pano
	ref       *refPano
	t         *testing.T
	name      string
	decisions int
}

func (p *panoPair) Decide(ctx *player.Context) []player.RequestItem {
	p.t.Helper()
	want := slices.Clone(p.ref.Decide(ctx))
	got := p.Pano.Decide(ctx)
	if !slices.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		p.t.Fatalf("%s decision %d (frame %d, %.2f Mbps): %d items, reference %d; first difference at item %d",
			p.name, p.decisions, ctx.PlayFrame, ctx.PredictedMbps, len(got), len(want), i)
	}
	p.decisions++
	return got
}

// TestPanoMatchesReference plays randomised sessions — generated head and
// bandwidth traces, PSNR and PSPNR, a 3 s and a 1 s look-ahead, the
// paper's 12x12 grid and a 4x5 grid with fewer tiles than
// DefaultGroupCount — and then a random walk of decisions with a jumping
// play position, prediction and rate. The chunk-plan Pano must list what
// the reference lists, decision by decision.
func TestPanoMatchesReference(t *testing.T) {
	grids := []struct{ rows, cols int }{{12, 12}, {4, 5}}
	for _, g := range grids {
		for _, metric := range []quality.Metric{quality.PSNR, quality.PSPNR} {
			for _, look := range []time.Duration{3 * time.Second, time.Second} {
				for seed := int64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("%dx%d/%v/%v/seed%d", g.rows, g.cols, metric, look, seed)
					m := video.Generate(video.GenParams{ID: "ref", Rows: g.rows, Cols: g.cols, NumChunks: 8,
						TargetQP42Mbps: 1, TargetQP22Mbps: 12, MotionLevel: 0.5, Seed: seed})
					opts := PanoOptions{Metric: metric, Lookahead: look}
					pair := &panoPair{Pano: NewPano(opts), ref: newRefPano(opts), t: t, name: name}
					_, err := player.Run(player.Config{
						Manifest: m, Metric: metric, Scheme: pair,
						Head: trace.GenerateHead(trace.HeadGenParams{UserID: "u", Class: trace.MotionClass(seed % 3), Duration: 10 * time.Second, Seed: seed}),
						Bandwidth: trace.GenerateBandwidth(trace.BandwidthGenParams{ID: "bw", Duration: 20 * time.Second, Seed: seed,
							StateMeansMbps: []float64{1, 4, 12, 30}, SwitchPerSec: 0.5, NoiseFrac: 0.2, DipPerSec: 0.1, DipLen: time.Second}),
					})
					if err != nil {
						t.Fatal(err)
					}
					if pair.decisions < m.NumChunks {
						t.Fatalf("%s: session ran %d decisions", name, pair.decisions)
					}

					// The random walk: each decision lands anywhere in the
					// video, with its own prediction and rate.
					rng := rand.New(rand.NewSource(seed))
					pair = &panoPair{Pano: NewPano(opts), ref: newRefPano(opts), t: t, name: name + "/walk"}
					ctx := testContext(m, 1)
					for i := 0; i < 40; i++ {
						ctx.PlayFrame = rng.Intn(m.NumFrames())
						ctx.Now = ctx.FrameDeadline(ctx.PlayFrame) + time.Duration(rng.Intn(500))*time.Millisecond
						ctx.PredictedMbps = []float64{0.2, 2, 8, 40, 1e4}[rng.Intn(5)]
						o := geom.Orientation{Yaw: rng.Float64()*360 - 180, Pitch: rng.Float64()*160 - 80}
						ctx.Predict = func(at time.Duration) geom.Orientation {
							return geom.Orientation{Yaw: geom.NormalizeYaw(o.Yaw + 30*at.Seconds()), Pitch: o.Pitch}
						}
						pair.Decide(ctx)
					}
				}
			}
		}
	}
}
