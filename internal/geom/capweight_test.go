package geom

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// capCases yields seeded cap centers that include both poles, the ±180° yaw
// seam and tile corners, with radii over 0.5°–179.9° plus the RoI radii the
// scheduler actually asks for.
func capCases(rng *rand.Rand, n int) (centers []Orientation, radii []float64) {
	edgeYaw := []float64{-180, 179.999999, -179.999999, 0, 90, -90}
	edgePitch := []float64{90, -90, 89.999999, -89.999999, 0, 45}
	fixedRadii := []float64{25, 50, 65, 0.5, 179.9}
	for i := 0; i < n; i++ {
		o := Orientation{Yaw: rng.Float64()*360 - 180, Pitch: rng.Float64()*180 - 90}
		switch i % 4 {
		case 1:
			o.Yaw = edgeYaw[rng.Intn(len(edgeYaw))]
		case 2:
			o.Pitch = edgePitch[rng.Intn(len(edgePitch))]
		}
		r := 0.5 + rng.Float64()*179.4
		if i%3 == 0 {
			r = fixedRadii[rng.Intn(len(fixedRadii))]
		}
		centers = append(centers, o)
		radii = append(radii, r)
	}
	return centers, radii
}

// TestCapWeightMatchesSampleLoop is the bit-identity proof of the tile
// classifier: for every tile, capWeight (one dot product for most tiles)
// returns exactly the bits of sampleWeight, the plain 16-sample loop that
// was the only implementation before it.
func TestCapWeightMatchesSampleLoop(t *testing.T) {
	for _, dim := range [][2]int{{1, 1}, {4, 6}, {12, 12}, {24, 48}} {
		g := NewGrid(dim[0], dim[1])
		rng := rand.New(rand.NewSource(int64(dim[0]*100 + dim[1])))
		centers, radii := capCases(rng, 20000)
		walked, pairs := 0, 0
		for i, c := range centers {
			q := NewCapQuery(c, radii[i])
			for id := 0; id < g.NumTiles(); id++ {
				want := g.sampleWeight(TileID(id), q)
				got := g.capWeight(TileID(id), q)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%dx%d tile %d, cap %+v r=%v: capWeight %v, sample loop %v",
						dim[0], dim[1], id, c, radii[i], got, want)
				}
				if got != 0 && got != g.tileWeight[id] {
					walked++
				}
				pairs++
			}
		}
		t.Logf("%dx%d: %d tile x cap pairs, %.1f%% partially covered", dim[0], dim[1], pairs, 100*float64(walked)/float64(pairs))
	}
}

// TestCapWalksMatchSampleLoop checks the public walks built on capWeight
// against the sample loop, bit for bit and in order.
func TestCapWalksMatchSampleLoop(t *testing.T) {
	g := NewGrid(12, 12)
	centers, radii := capCases(rand.New(rand.NewSource(7)), 2000)
	var ids []TileID
	var ws []float64
	for i, c := range centers {
		q := NewCapQuery(c, radii[i])
		var wantIDs []TileID
		var wantWs []float64
		for id := 0; id < g.NumTiles(); id++ {
			in := g.sampleWeight(TileID(id), q)
			if frac := g.OverlapCapQ(TileID(id), q); math.Float64bits(frac) != math.Float64bits(in/g.tileWeight[id]) {
				t.Fatalf("OverlapCapQ tile %d cap %+v r=%v: %v, sample loop %v", id, c, radii[i], frac, in/g.tileWeight[id])
			}
			if in > 0 {
				wantIDs = append(wantIDs, TileID(id))
				wantWs = append(wantWs, in)
			}
		}
		ids, ws = g.AppendCapWeights(ids[:0], ws[:0], c, radii[i])
		tiles := g.AppendTilesInCap(nil, c, radii[i])
		if len(ids) != len(wantIDs) || len(tiles) != len(wantIDs) {
			t.Fatalf("cap %+v r=%v: %d weighted, %d listed, sample loop %d", c, radii[i], len(ids), len(tiles), len(wantIDs))
		}
		for k := range wantIDs {
			if ids[k] != wantIDs[k] || tiles[k] != wantIDs[k] || math.Float64bits(ws[k]) != math.Float64bits(wantWs[k]) {
				t.Fatalf("cap %+v r=%v entry %d: got tile %d/%d weight %v, want tile %d weight %v",
					c, radii[i], k, ids[k], tiles[k], ws[k], wantIDs[k], wantWs[k])
			}
		}
	}
}

// TestCapClassifierSettlesMostTiles pins the mechanism, not just the
// result: on the paper's grid and viewport the sample loop must be the
// exception.
func TestCapClassifierSettlesMostTiles(t *testing.T) {
	g := NewGrid(12, 12)
	rng := rand.New(rand.NewSource(11))
	walked, pairs := 0, 0
	for i := 0; i < 2000; i++ {
		q := NewCapQuery(Orientation{Yaw: rng.Float64()*360 - 180, Pitch: rng.Float64()*120 - 60}, 50)
		for id := 0; id < g.NumTiles(); id++ {
			if g.capSide(TileID(id), q) == sideCrossed {
				walked++
			}
			pairs++
		}
	}
	share := float64(walked) / float64(pairs)
	t.Logf("sample loop ran for %.1f%% of tile x cap pairs", 100*share)
	if share > 0.25 {
		t.Errorf("sample loop ran for %.1f%% of tile x cap pairs, want <= 25%%", 100*share)
	}
}

// TestCapWeightsIDsEqualTilesInCap pins the fact that lets the player walk
// the viewport cap once per frame and hand the result to both the stall
// check (which asked AppendTilesInCap) and the render accounting (which
// asked AppendCapWeights): the two walks list the same tiles in the same
// order, and every weight is positive — on caps that include the poles, the
// yaw seam, the empty cap (radius <= 0) and the whole sphere (>= 180).
func TestCapWeightsIDsEqualTilesInCap(t *testing.T) {
	g := NewGrid(12, 12)
	rng := rand.New(rand.NewSource(18))
	centers, radii := capCases(rng, 20000)
	for i := range radii {
		if i%10 == 9 {
			radii[i] = []float64{0, -5, 180, 270, 1e-9, 179.9999999}[rng.Intn(6)]
		}
	}
	var tiles, ids []TileID
	var ws []float64
	listed := 0
	for i, c := range centers {
		tiles = g.AppendTilesInCap(tiles[:0], c, radii[i])
		ids, ws = g.AppendCapWeights(ids[:0], ws[:0], c, radii[i])
		if len(ids) != len(tiles) || len(ws) != len(tiles) {
			t.Fatalf("cap %+v r=%v: %d tiles listed, %d ids and %d weights", c, radii[i], len(tiles), len(ids), len(ws))
		}
		for k := range tiles {
			if ids[k] != tiles[k] || !(ws[k] > 0) {
				t.Fatalf("cap %+v r=%v entry %d: listed tile %d, weighted tile %d with weight %v", c, radii[i], k, tiles[k], ids[k], ws[k])
			}
		}
		switch {
		case radii[i] <= 0 && len(tiles) != 0:
			t.Fatalf("cap %+v r=%v: empty cap lists %d tiles", c, radii[i], len(tiles))
		case radii[i] >= 180 && len(tiles) != g.NumTiles():
			t.Fatalf("cap %+v r=%v: whole sphere lists %d tiles", c, radii[i], len(tiles))
		}
		listed += len(tiles)
	}
	if listed < 20000 {
		t.Errorf("only %d tiles listed over %d caps", listed, len(centers))
	}
}

// FuzzCapWalk holds every walk over the grid to the full-grid sample loop
// for any center and radius bits — NaN, ±Inf, |pitch| > 90 (walked where
// the center's vector points), radii ≤ 0 (empty) and ≥ 180 (whole sphere):
// AppendTilesInCap, AppendCapWeights, Coverage and AppendTilesInRing list
// the same tiles in the same order with the same weight bits, and
// OverlapCapQ returns the loop's fraction for every tile, on the paper's
// 12×12 grid and a 24×48 one.
func FuzzCapWalk(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, s := range [][3]float64{
		{0, 0, 50}, {12, 3, 65}, {-180, 90, 25}, {179.999999, -89.999999, 50},
		{33, 120, 80}, {-75, -95, 40}, {10, 269, 30}, {1e300, -1e-300, 1e-9},
		{nan, 0, 50}, {0, inf, 50}, {0, 0, nan}, {-inf, 0, inf}, {0, 0, -inf},
		{0, 0, 0}, {0, 0, -5}, {0, 0, 180}, {0, 0, 179.9999999}, {0, 0, 89.9999},
	} {
		f.Add(s[0], s[1], s[2])
	}
	grids := []*Grid{NewGrid(12, 12), NewGrid(24, 48)}
	have := func(id TileID) bool { return id%3 != 0 }
	f.Fuzz(func(t *testing.T, yaw, pitch, radius float64) {
		c := Orientation{Yaw: yaw, Pitch: pitch}
		q := NewCapQuery(c, radius)
		qo := NewCapQuery(c, radius+15)
		for _, g := range grids {
			var wantIDs, wantRing []TileID
			var wantWs []float64
			total, covered := 0.0, 0.0
			for id := TileID(0); int(id) < g.NumTiles(); id++ {
				in := g.sampleWeight(id, q)
				if got, want := g.OverlapCapQ(id, q), in/g.tileWeight[id]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%dx%d tile %d: OverlapCapQ %v, sample loop %v", g.Rows, g.Cols, id, got, want)
				}
				if in > 0 {
					wantIDs, wantWs = append(wantIDs, id), append(wantWs, in)
					total += in
					if have(id) {
						covered += in
					}
				} else if g.sampleWeight(id, qo) > 0 {
					wantRing = append(wantRing, id)
				}
			}
			wantCov := 1.0
			if total != 0 {
				wantCov = covered / total
			}

			tiles := g.AppendTilesInCap(nil, c, radius)
			ids, ws := g.AppendCapWeights(nil, nil, c, radius)
			inner, ring := g.AppendTilesInRing(nil, nil, c, radius, radius+15)
			if !slices.Equal(tiles, wantIDs) || !slices.Equal(ids, wantIDs) || !slices.Equal(inner, wantIDs) {
				t.Fatalf("%dx%d cap %+v r=%v: TilesInCap %v, CapWeights %v, ring's inner %v, sample loop %v",
					g.Rows, g.Cols, c, radius, tiles, ids, inner, wantIDs)
			}
			if !slices.Equal(ring, wantRing) {
				t.Fatalf("%dx%d cap %+v r=%v: ring %v, sample loop %v", g.Rows, g.Cols, c, radius, ring, wantRing)
			}
			for k := range ws {
				if math.Float64bits(ws[k]) != math.Float64bits(wantWs[k]) {
					t.Fatalf("%dx%d cap %+v r=%v tile %d: weight %v, sample loop %v", g.Rows, g.Cols, c, radius, ids[k], ws[k], wantWs[k])
				}
			}
			if got := (Viewport{RadiusDeg: radius}).Coverage(g, c, have); math.Float64bits(got) != math.Float64bits(wantCov) {
				t.Fatalf("%dx%d cap %+v r=%v: Coverage %v, sample loop %v", g.Rows, g.Cols, c, radius, got, wantCov)
			}
		}
	})
}
