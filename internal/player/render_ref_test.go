package player

import (
	"math"
	"reflect"
	"testing"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/obs"
	"dragonfly/internal/quality"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// The per-frame path as it stood before a Playback walked the viewport cap
// once per instant: the stall check listed the cap's tiles with
// AppendTilesInCap, the render accounting walked the same cap again with
// AppendCapWeights, and every tile's score went through mseFromPSNR
// (ViewportAccumulator.Add) per frame. Kept verbatim — modulo taking the
// playback state it read as arguments — as the oracle for
// TestOneViewportWalkMatchesTwo.

func refRequirementMet(grid *geom.Grid, vp geom.Viewport, policy StallPolicy, startup bool, rcv *Received, o geom.Orientation, chunk int, now time.Duration) bool {
	if startup && policy == NeverStall && now >= startupGrace {
		return true
	}
	for _, id := range grid.AppendTilesInCap(nil, o, vp.RadiusDeg) {
		switch {
		case startup || policy == StallOnMissingAny:
			_, okP := rcv.bestPrimaryBy(chunk, id, now)
			if !okP && !rcv.hasMaskingBy(chunk, id, now) {
				return false
			}
		case policy == StallOnMissingMasking:
			if !rcv.hasMaskingBy(chunk, id, now) {
				return false
			}
		}
	}
	return true
}

func refRenderFrame(a *accountant, vp geom.Viewport, chunk int, o geom.Orientation, rcv *Received, now time.Duration) {
	ids, weights := a.Grid.AppendCapWeights(nil, nil, o, vp.RadiusDeg)
	tiles := a.Manifest.NumTiles()

	var acc quality.ViewportAccumulator
	totalW, blankW := 0.0, 0.0
	incomplete, primarySkip := false, false
	for i, id := range ids {
		w := weights[i]
		totalW += w
		a.M.ViewHeat[id]++
		ct := chunk*tiles + int(id)
		if q, ok := rcv.bestPrimaryBy(chunk, id, now); ok {
			a.renderedPrimaryQ[ct*video.NumQualities+int(q)] = true
			a.M.RenderedPrimaryByQuality[q]++
			acc.Add(w, a.scores.Score(chunk, id, q))
			continue
		}
		primarySkip = true
		a.M.SkipHeat[id]++
		if rcv.hasMaskingBy(chunk, id, now) {
			a.renderedMasking[ct] = true
			a.M.RenderedMasking++
			acc.Add(w, a.scores.Score(chunk, id, video.Lowest))
			continue
		}
		if a.interpolate {
			if db, ok := a.interpolated(chunk, id, rcv, now); ok {
				a.M.RenderedInterpolated++
				acc.Add(w, db)
				continue
			}
		}
		a.M.RenderedBlank++
		a.M.BlankHeat[id]++
		incomplete = true
		blankW += w
		acc.Add(w, a.Manifest.BlackPSNR(chunk, id))
	}
	a.M.FrameScore = append(a.M.FrameScore, acc.PSNR())
	if totalW > 0 {
		a.M.FrameBlank = append(a.M.FrameBlank, blankW/totalW)
	} else {
		a.M.FrameBlank = append(a.M.FrameBlank, 0)
	}
	if incomplete {
		a.M.IncompleteFrames++
	}
	if primarySkip {
		a.M.PrimarySkipFrames++
	}
	a.M.TotalFrames++
}

// TestOneViewportWalkMatchesTwo replays sessions against the reference.
// Received stamps every variant with the instant it became renderable, so
// each rendered frame and each stall of a finished session (from its trace)
// can be put to the reference again at its own instant: the reference's
// stall check must agree with what the session did, and its accounting —
// its own second walk, its own MSE conversions — must leave Metrics
// deep-equal, frame scores bit for bit.
func TestOneViewportWalkMatchesTwo(t *testing.T) {
	m := smallManifest()
	head := trace.GenerateHead(trace.HeadGenParams{UserID: "u", Class: trace.MotionHigh, Duration: 7 * time.Second, Seed: 9})
	// lazy asks, chunk by chunk, for the tiles near where the user looked
	// when it decided — late on purpose — with every fifth one, and every
	// other next chunk whole, on the masking stream. A stalling policy gets
	// the whole viewport sooner or later and stalls at chunk boundaries and
	// on head turns; a never-stall policy gets primaries for the middle of
	// it only and masking for every other tile around, so it renders masks,
	// blanks and (when interpolating) holes with masked neighbours.
	lazy := func(policy StallPolicy, masking bool) func(*Context) []RequestItem {
		return func(ctx *Context) []RequestItem {
			var items []RequestItem
			c := ctx.Manifest.ChunkOfFrame(ctx.PlayFrame)
			center := ctx.Predict(ctx.Now)
			if masking && c+1 < ctx.Manifest.NumChunks && c%2 == 0 {
				items = append(items, RequestItem{Stream: Masking, Chunk: c + 1, Full360: true})
			}
			primaryDeg := 60.0
			if policy == NeverStall {
				primaryDeg = 35
				for _, id := range ctx.Grid.AppendTilesInCap(nil, center, 90) {
					if id%2 == 0 {
						items = append(items, RequestItem{Stream: Masking, Chunk: c, Tile: id})
					}
				}
			}
			for _, id := range ctx.Grid.AppendTilesInCap(nil, center, primaryDeg) {
				if masking && id%5 == 0 {
					items = append(items, RequestItem{Stream: Masking, Chunk: c, Tile: id})
					continue
				}
				items = append(items, RequestItem{Stream: Primary, Chunk: c, Tile: id, Quality: video.Quality(int(id) % video.NumQualities)})
			}
			return items
		}
	}
	for _, tc := range []struct {
		name        string
		policy      StallPolicy
		masking     bool
		interpolate bool
		mbps        float64
	}{
		{"StallOnMissingAny", StallOnMissingAny, false, false, 3},
		{"StallOnMissingAny with masking", StallOnMissingAny, true, false, 2},
		{"NeverStall", NeverStall, true, false, 1.5},
		{"NeverStall interpolating", NeverStall, true, true, 1.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &testScheme{name: "lazy", interval: 100 * time.Millisecond, policy: tc.policy, decide: lazy(tc.policy, tc.masking)}
			tr := obs.NewTrace(1 << 16)
			cfg := Config{Manifest: m, Head: head, Bandwidth: flatBandwidth(tc.mbps), Scheme: s, Trace: tr, MaskInterpolation: tc.interpolate}
			// The session's Received is read before Finish hands it on.
			pb, end, err := simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rcv := pb.received
			if tr.Dropped() != 0 {
				t.Fatalf("trace dropped %d events", tr.Dropped())
			}

			var shadowMet Metrics
			shadow := newAccountant(m, m.Grid(), cfg.Metric, &shadowMet, make([]bool, renderedLen(m)))
			shadow.interpolate = tc.interpolate
			vp := geom.DefaultViewport
			frames, stalls := 0, 0
			for _, e := range tr.Events() {
				o := head.At(e.At)
				switch e.Kind {
				case obs.EvQuality: // one per rendered frame
					startup := frames == 0
					if !refRequirementMet(m.Grid(), vp, tc.policy, startup, rcv, o, e.Chunk, e.At) && (startup || tc.policy != NeverStall) {
						t.Fatalf("frame %d rendered at %v, but the reference's stall check fails there", frames, e.At)
					}
					refRenderFrame(shadow, vp, e.Chunk, o, rcv, e.At)
					frames++
				case obs.EvStall:
					if refRequirementMet(m.Grid(), vp, tc.policy, false, rcv, o, e.Chunk, e.At) {
						t.Fatalf("stalled at %v, but the reference's stall check passes there", e.At)
					}
					stalls++
				}
			}
			met := pb.Finish(end)
			if frames != m.NumFrames() || stalls != met.StallEvents {
				t.Fatalf("replayed %d frames and %d stalls; the session rendered %d of %d and stalled %d times", frames, stalls, met.TotalFrames, m.NumFrames(), met.StallEvents)
			}
			if tc.policy != NeverStall && stalls == 0 || tc.policy == NeverStall && met.RenderedMasking+met.RenderedBlank == 0 {
				t.Fatalf("the session exercised nothing: %d stalls, %d masked, %d blank", stalls, met.RenderedMasking, met.RenderedBlank)
			}
			if tc.interpolate && met.RenderedInterpolated == 0 {
				t.Fatal("no tile was interpolated")
			}

			// Everything the accountant owns comes from the shadow; the rest
			// of Metrics is the session's own.
			want := *met
			want.FrameScore, want.FrameBlank = shadowMet.FrameScore, shadowMet.FrameBlank
			want.TotalFrames, want.IncompleteFrames, want.PrimarySkipFrames = shadowMet.TotalFrames, shadowMet.IncompleteFrames, shadowMet.PrimarySkipFrames
			want.SkipHeat, want.BlankHeat, want.ViewHeat = shadowMet.SkipHeat, shadowMet.BlankHeat, shadowMet.ViewHeat
			want.RenderedPrimaryByQuality = shadowMet.RenderedPrimaryByQuality
			want.RenderedMasking, want.RenderedBlank, want.RenderedInterpolated = shadowMet.RenderedMasking, shadowMet.RenderedBlank, shadowMet.RenderedInterpolated
			if !reflect.DeepEqual(*met, want) {
				t.Errorf("metrics differ from the two-walk reference:\n got %+v\nwant %+v", *met, want)
			}
			for i := range want.FrameScore {
				if math.Float64bits(met.FrameScore[i]) != math.Float64bits(want.FrameScore[i]) ||
					math.Float64bits(met.FrameBlank[i]) != math.Float64bits(want.FrameBlank[i]) {
					t.Fatalf("frame %d: score %v blank %v, reference %v %v", i, met.FrameScore[i], met.FrameBlank[i], want.FrameScore[i], want.FrameBlank[i])
				}
			}
		})
	}
}
