package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/player"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// scoreSlabRef is window.scoreSlab as it stood before it learned that a
// tile scores only over its own chunk's frames: every candidate evaluated
// at every sample of the window, 0.0 added for every frame outside its
// chunk. Kept verbatim as the oracle for TestScoreSlabMatchesReference,
// except that on the table path it sums the per-radius planes itself, one
// lookup per (sample, radius), where the window now reads one plane of
// the whole RoI set.
func (w *window) scoreSlabRef(o Options, tabs *sessionTables, wFrames, nSamples, step int) {
	nRoI := len(o.RoIs.RadiiDeg)
	var lookups []geom.PlaneLookup // [s*nRoI + r]
	if tabs.plane != nil {
		tab := geom.SharedTable(tabs.grid, geom.TableParams{})
		for s := 0; s < nSamples; s++ {
			for _, r := range o.RoIs.RadiiDeg {
				lookups = append(lookups, tab.Plane(r).Lookup(w.sampleOri[s]))
			}
		}
	}
	w.sampleSc = grow(w.sampleSc, nSamples)
	w.cumLBuf = grow(w.cumLBuf, len(w.slab)*(wFrames+1))
	for i := range w.slab {
		c := &w.slab[i]
		for s := 0; s < nSamples; s++ {
			if tabs.plane != nil {
				v := 0.0
				for r := 0; r < nRoI; r++ {
					v += lookups[s*nRoI+r].Overlap(c.tile)
				}
				w.sampleSc[s] = v
			} else {
				w.sampleSc[s] = o.RoIs.LocationScoreQ(tabs.grid, c.tile, w.queries[s*nRoI:(s+1)*nRoI])
			}
		}
		cumL := w.cumLBuf[i*(wFrames+1) : (i+1)*(wFrames+1)]
		cumL[wFrames] = 0
		for wf := wFrames - 1; wf >= 0; wf-- {
			pf := 0.0
			if w.frameChunk[wf] == int32(c.chunk) {
				pf = w.sampleSc[wf/step]
			}
			cumL[wf] = cumL[wf+1] + pf
		}
		c.cumL = cumL
		c.full = cumL[0]
	}
}

// checkEndsInZero asserts what the scheduler's branch-free utilityFrom
// stands on: every candidate's cumL has one element per window frame plus a
// final zero, so "arrives after the window" reads as "earns nothing".
func checkEndsInZero(w *window) (tile geom.TileID, ok bool) {
	for _, c := range w.cands {
		if len(c.cumL) != w.numFrames+1 || math.Float64bits(c.cumL[w.numFrames]) != 0 {
			return c.tile, false
		}
	}
	return 0, true
}

// TestScoreSlabMatchesReference compares scoreSlab with the reference over
// seeded windows of every shape build and the masking planner produce —
// table path and exact geometry, frame steps 1/2/3/6, windows that start
// mid-chunk, span one to four chunks and run past the last frame of the
// video (frameChunk -1), and slabs that include candidates whose chunk has
// no frame in the window: every cumL element and every full must have the
// reference's bits.
func TestScoreSlabMatchesReference(t *testing.T) {
	m := video.Generate(video.GenParams{ID: "slab", NumChunks: 5, Seed: 5}) // 12x12, 30-frame chunks
	rng := rand.New(rand.NewSource(1809))
	var head geom.Orientation
	ctx := staticContext(m, 10)
	ctx.Predict = func(at time.Duration) geom.Orientation {
		return geom.Orientation{
			Yaw:   geom.NormalizeYaw(head.Yaw + 90*at.Seconds()),
			Pitch: geom.ClampPitch(head.Pitch + 30*at.Seconds()),
		}
	}
	steps := []int{1, 2, 3, 6}
	var got, want window
	var tabs [2]sessionTables
	spans := map[int]int{}
	pastEnd, empty, elems := 0, 0, 0
	const windows = 2400
	for i := 0; i < windows; i++ {
		o := defaultOptions()
		o.ExactGeometry = i%2 == 1
		tb := &tabs[i%2]
		tb.resolve(ctx, o)
		step := steps[rng.Intn(len(steps))]
		wFrames := 1 + rng.Intn(100)
		ctx.PlayFrame = rng.Intn(m.NumFrames())
		ctx.Now = time.Duration(rng.Int63n(int64(time.Minute)))
		head = geom.Orientation{Yaw: 360*rng.Float64() - 180, Pitch: 180*rng.Float64() - 90}

		nSamples := got.prep(ctx, o, tb, wFrames, step)
		if n := want.prep(ctx, o, tb, wFrames, step); n != nSamples {
			t.Fatalf("window %d: prep gave %d samples, then %d", i, nSamples, n)
		}
		first := m.ChunkOfFrame(ctx.PlayFrame)
		last := first
		for _, ch := range got.frameChunk {
			if ch < 0 {
				pastEnd++
				break
			}
			last = int(ch)
		}
		spans[last-first+1]++

		// Candidates over the window's chunks and one chunk either side,
		// in any order: some have no frame in the window.
		got.slab = got.slab[:0]
		for n := 1 + rng.Intn(40); n > 0; n-- {
			chunk := first - 1 + rng.Intn(last-first+3)
			if chunk < 0 || chunk >= m.NumChunks {
				continue
			}
			if chunk < first || chunk > last {
				empty++
			}
			got.slab = append(got.slab, candidate{chunk: chunk, tile: geom.TileID(rng.Intn(m.NumTiles()))})
		}
		want.slab = append(want.slab[:0], got.slab...)

		got.scoreSlab(o, tb, wFrames, nSamples, step)
		want.scoreSlabRef(o, tb, wFrames, nSamples, step)
		for j := range want.slab {
			a, b := &got.slab[j], &want.slab[j]
			if len(a.cumL) != wFrames+1 || math.Float64bits(a.cumL[wFrames]) != 0 {
				t.Fatalf("window %d candidate %d: cumL has %d elements for %d frames, last %v", i, j, len(a.cumL), wFrames, a.cumL[len(a.cumL)-1])
			}
			if math.Float64bits(a.full) != math.Float64bits(b.full) {
				t.Fatalf("window %d (exact %v, step %d, %d frames from %d) candidate %d (chunk %d tile %d): full %v, reference %v",
					i, o.ExactGeometry, step, wFrames, ctx.PlayFrame, j, a.chunk, a.tile, a.full, b.full)
			}
			for wf := range b.cumL {
				if math.Float64bits(a.cumL[wf]) != math.Float64bits(b.cumL[wf]) {
					t.Fatalf("window %d (exact %v, step %d, %d frames from %d) candidate %d (chunk %d tile %d): cumL[%d] %v, reference %v",
						i, o.ExactGeometry, step, wFrames, ctx.PlayFrame, j, a.chunk, a.tile, wf, a.cumL[wf], b.cumL[wf])
				}
			}
			elems += len(b.cumL)
		}
	}
	for span := 1; span <= 4; span++ {
		if spans[span] < windows/100 {
			t.Errorf("only %d of %d windows span %d chunks", spans[span], windows, span)
		}
	}
	if pastEnd < windows/100 || empty < windows/10 {
		t.Errorf("%d windows ran past the video, %d candidates had no frame in their window: the generator is not covering the edges", pastEnd, empty)
	}
	t.Logf("%d windows, %d cumL elements compared; spans %v, %d past the end, %d frameless candidates", windows, elems, spans, pastEnd, empty)
}

// TestBuiltWindowsEndInZero holds the invariant on every window real
// sessions build, primary and masking, table path and exact, including the
// last second of the video where windows run past its end.
func TestBuiltWindowsEndInZero(t *testing.T) {
	m := testManifest()
	for _, o := range []Options{
		{},
		{ExactGeometry: true, frameStep: 3},
		{Masking: MaskTiled, MaskScheduled: true},
		{Masking: MaskNone, frameStep: 1},
	} {
		d := New(o)
		windows := 0
		probe := &decideProbe{Dragonfly: d, after: func(_ int, ctx *player.Context, s *scratch) {
			built := []*window{&s.w}
			if o.MaskScheduled {
				built = append(built, &s.mw)
			}
			for _, w := range built {
				if tile, ok := checkEndsInZero(w); !ok {
					t.Fatalf("decision at %v: tile %d's cumL does not end in a zero at frame %d", ctx.Now, tile, w.numFrames)
				}
				windows++
			}
		}}
		_, err := player.Run(player.Config{
			Manifest:  m,
			Head:      headTrace(7*time.Second, trace.MotionHigh, 3),
			Bandwidth: &trace.BandwidthTrace{ID: "flat", SamplePeriod: time.Second, Mbps: []float64{6}},
			Scheme:    probe,
		})
		if err != nil {
			t.Fatal(err)
		}
		if windows < 50 {
			t.Errorf("%+v: only %d windows checked", o, windows)
		}
	}
}
