package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalizeYaw(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {180, -180}, {-180, -180}, {190, -170}, {-190, 170},
		{360, 0}, {720, 0}, {-360, 0}, {539, 179}, {541, -179},
	}
	for _, c := range cases {
		if got := NormalizeYaw(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("NormalizeYaw(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNormalizeYawRangeProperty(t *testing.T) {
	f := func(yaw float64) bool {
		if math.IsNaN(yaw) || math.IsInf(yaw, 0) {
			return true
		}
		y := NormalizeYaw(yaw)
		return y >= -180 && y < 180
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestYawDelta(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, 10, 10}, {10, 0, -10}, {170, -170, 20}, {-170, 170, -20},
		{0, 180, 180}, {90, -90, 180},
	}
	for _, c := range cases {
		if got := YawDelta(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("YawDelta(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestYawDeltaAntisymmetry(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		a, b = NormalizeYaw(a), NormalizeYaw(b)
		d1, d2 := YawDelta(a, b), YawDelta(b, a)
		// d1 == -d2 except at the 180 boundary where both map to +180.
		if math.Abs(math.Abs(d1)-180) < 1e-9 {
			return math.Abs(math.Abs(d2)-180) < 1e-9
		}
		return math.Abs(d1+d2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAngularDistance(t *testing.T) {
	cases := []struct {
		a, b Orientation
		want float64
	}{
		{Orientation{0, 0}, Orientation{0, 0}, 0},
		{Orientation{0, 0}, Orientation{90, 0}, 90},
		{Orientation{0, 0}, Orientation{-180, 0}, 180},
		{Orientation{0, 0}, Orientation{0, 90}, 90},
		{Orientation{0, 90}, Orientation{123, 90}, 0},   // both at zenith
		{Orientation{0, 45}, Orientation{-180, 45}, 90}, // over the pole
		{Orientation{30, 0}, Orientation{40, 0}, 10},
	}
	for _, c := range cases {
		if got := AngularDistance(c.a, c.b); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("AngularDistance(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAngularDistanceProperties(t *testing.T) {
	f := func(y1, p1, y2, p2 float64) bool {
		for _, v := range []float64{y1, p1, y2, p2} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		a := Orientation{NormalizeYaw(y1), ClampPitch(math.Mod(p1, 90))}
		b := Orientation{NormalizeYaw(y2), ClampPitch(math.Mod(p2, 90))}
		d := AngularDistance(a, b)
		if d < 0 || d > 180 {
			return false
		}
		// Symmetry.
		return math.Abs(d-AngularDistance(b, a)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnitVectorIsUnit(t *testing.T) {
	f := func(yaw, pitch float64) bool {
		if math.IsNaN(yaw) || math.IsInf(yaw, 0) || math.IsNaN(pitch) || math.IsInf(pitch, 0) {
			return true
		}
		o := Orientation{NormalizeYaw(yaw), ClampPitch(math.Mod(pitch, 90))}
		v := o.Unit()
		return math.Abs(v.dot(v)-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGridTileAt(t *testing.T) {
	g := NewGrid(12, 12)
	if g.NumTiles() != 144 {
		t.Fatalf("NumTiles = %d, want 144", g.NumTiles())
	}
	// Top-left tile: yaw near -180, pitch near +90.
	if id := g.TileAt(Orientation{-179, 89}); id != 0 {
		t.Errorf("TileAt(-179,89) = %d, want 0", id)
	}
	// Bottom-right tile.
	if id := g.TileAt(Orientation{179, -89}); id != 143 {
		t.Errorf("TileAt(179,-89) = %d, want 143", id)
	}
	// Center of sphere (yaw 0, pitch 0) falls at row 6, col 6.
	if id := g.TileAt(Orientation{0.1, -0.1}); id != TileID(6*12+6) {
		t.Errorf("TileAt(0.1,-0.1) = %d, want %d", id, 6*12+6)
	}
}

func TestGridTileAtCenterRoundTrip(t *testing.T) {
	g := NewGrid(12, 12)
	for id := 0; id < g.NumTiles(); id++ {
		c := g.Center(TileID(id))
		if got := g.TileAt(c); got != TileID(id) {
			t.Errorf("TileAt(Center(%d)) = %d", id, got)
		}
	}
}

func TestGridRowCol(t *testing.T) {
	g := NewGrid(4, 6)
	r, c := g.RowCol(TileID(0))
	if r != 0 || c != 0 {
		t.Errorf("RowCol(0) = %d,%d", r, c)
	}
	r, c = g.RowCol(TileID(23))
	if r != 3 || c != 5 {
		t.Errorf("RowCol(23) = %d,%d, want 3,5", r, c)
	}
}

func TestOverlapCapBounds(t *testing.T) {
	g := NewGrid(12, 12)
	center := Orientation{0, 0}
	for id := 0; id < g.NumTiles(); id++ {
		f := g.OverlapCap(TileID(id), center, 50)
		if f < 0 || f > 1 {
			t.Fatalf("overlap out of range: tile %d => %v", id, f)
		}
	}
}

func TestOverlapCapMonotoneInRadius(t *testing.T) {
	g := NewGrid(12, 12)
	center := Orientation{37, -12}
	for id := 0; id < g.NumTiles(); id += 7 {
		prev := 0.0
		for r := 5.0; r <= 180; r += 5 {
			f := g.OverlapCap(TileID(id), center, r)
			if f < prev-1e-12 {
				t.Fatalf("overlap not monotone in radius: tile %d r=%v: %v < %v", id, r, f, prev)
			}
			prev = f
		}
		if math.Abs(prev-1) > 1e-12 {
			t.Fatalf("overlap at 180 deg should be 1, got %v", prev)
		}
	}
}

func TestOverlapCapFullWhenCentered(t *testing.T) {
	g := NewGrid(12, 12)
	// A tile 30°x15° wide is fully inside a 60° cap centered on it.
	for id := 0; id < g.NumTiles(); id += 11 {
		f := g.OverlapCap(TileID(id), g.Center(TileID(id)), 60)
		if f != 1 {
			t.Errorf("tile %d not fully covered by 60 deg cap at its center: %v", id, f)
		}
	}
}

func TestOverlapCapZeroWhenFar(t *testing.T) {
	g := NewGrid(12, 12)
	center := Orientation{0, 0}
	// A tile on the opposite side of the sphere has zero overlap with a 50° cap.
	opposite := g.TileAt(Orientation{-180 + 15, 0})
	if f := g.OverlapCap(opposite, center, 50); f != 0 {
		t.Errorf("opposite tile overlap = %v, want 0", f)
	}
}

func TestTilesInCapSubsetAndSymmetric(t *testing.T) {
	g := NewGrid(12, 12)
	tiles := g.AppendTilesInCap(nil, Orientation{0, 0}, 50)
	if len(tiles) == 0 || len(tiles) >= g.NumTiles() {
		t.Fatalf("unexpected viewport tile count %d", len(tiles))
	}
	// Equator-centered cap must be symmetric about yaw 0: if tile (r,c) is
	// included, so is its mirror (r, cols-1-c).
	set := map[TileID]bool{}
	for _, id := range tiles {
		set[id] = true
	}
	for _, id := range tiles {
		r, c := g.RowCol(id)
		mirror := TileID(r*g.Cols + (g.Cols - 1 - c))
		if !set[mirror] {
			t.Errorf("tile %d in cap but mirror %d not", id, mirror)
		}
	}
}

func TestViewportCoverage(t *testing.T) {
	g := NewGrid(12, 12)
	v := DefaultViewport
	center := Orientation{12, 3}
	all := func(TileID) bool { return true }
	none := func(TileID) bool { return false }
	if got := v.Coverage(g, center, all); math.Abs(got-1) > 1e-12 {
		t.Errorf("coverage with all tiles = %v, want 1", got)
	}
	if got := v.Coverage(g, center, none); got != 0 {
		t.Errorf("coverage with no tiles = %v, want 0", got)
	}
	// Partial: drop one viewport tile; coverage strictly between 0 and 1.
	tiles := v.Tiles(g, center)
	dropped := tiles[0]
	partial := v.Coverage(g, center, func(id TileID) bool { return id != dropped })
	if partial <= 0 || partial >= 1 {
		t.Errorf("partial coverage = %v, want in (0,1)", partial)
	}
}

func TestCoverageMonotoneProperty(t *testing.T) {
	g := NewGrid(6, 6)
	v := Viewport{RadiusDeg: 55}
	f := func(yaw, pitch float64, mask uint64) bool {
		if math.IsNaN(yaw) || math.IsInf(yaw, 0) || math.IsNaN(pitch) || math.IsInf(pitch, 0) {
			return true
		}
		center := Orientation{NormalizeYaw(yaw), ClampPitch(math.Mod(pitch, 90))}
		haveSmall := func(id TileID) bool { return mask&(1<<(uint(id)%36)) != 0 }
		haveBig := func(id TileID) bool { return haveSmall(id) || id%2 == 0 }
		return v.Coverage(g, center, haveBig) >= v.Coverage(g, center, haveSmall)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLocationScore(t *testing.T) {
	g := NewGrid(12, 12)
	rs := DefaultRoIs
	center := Orientation{0, 0}
	centerTile := g.TileAt(center)
	peripheryTile := g.TileAt(Orientation{55, 0}) // inside outer RoI only
	outside := g.TileAt(Orientation{-180 + 10, 0})
	sc := rs.LocationScore(g, centerTile, center)
	sp := rs.LocationScore(g, peripheryTile, center)
	so := rs.LocationScore(g, outside, center)
	if !(sc > sp && sp > so) {
		t.Errorf("location scores not ordered: center %v periphery %v outside %v", sc, sp, so)
	}
	if so != 0 {
		t.Errorf("outside score = %v, want 0", so)
	}
	// The tile containing the view center is fully inside the viewport and
	// outer RoIs, and at least partially inside the inner one.
	if sc <= 2 || sc > float64(len(rs.RadiiDeg)) {
		t.Errorf("center tile score = %v, want in (2, %d]", sc, len(rs.RadiiDeg))
	}
}

func TestSolidAngleWeightPoleVsEquator(t *testing.T) {
	g := NewGrid(12, 12)
	pole := g.SolidAngleWeight(TileID(0))           // top row
	equator := g.SolidAngleWeight(TileID(6*12 + 0)) // row just below equator
	if pole >= equator {
		t.Errorf("pole tile weight %v should be < equator tile weight %v", pole, equator)
	}
}

func TestRoISetMaxRadius(t *testing.T) {
	if got := DefaultRoIs.MaxRadius(); got != 65 {
		t.Errorf("MaxRadius = %v, want 65", got)
	}
	if got := (RoISet{}).MaxRadius(); got != 0 {
		t.Errorf("empty MaxRadius = %v, want 0", got)
	}
}

func TestNewGridPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewGrid(0, 5) did not panic")
		}
	}()
	NewGrid(0, 5)
}

func BenchmarkOverlapCap(b *testing.B) {
	g := NewGrid(12, 12)
	center := Orientation{10, -5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.OverlapCap(TileID(i%144), center, 50)
	}
}

func BenchmarkLocationScoreAllTiles(b *testing.B) {
	g := NewGrid(12, 12)
	center := Orientation{10, -5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for id := 0; id < 144; id++ {
			DefaultRoIs.LocationScore(g, TileID(id), center)
		}
	}
}

func TestCapWeightsConsistentWithCoverage(t *testing.T) {
	g := NewGrid(12, 12)
	center := Orientation{20, 10}
	ids, weights := g.CapWeights(center, 50)
	if len(ids) != len(weights) || len(ids) == 0 {
		t.Fatalf("CapWeights returned %d ids, %d weights", len(ids), len(weights))
	}
	total := 0.0
	for i, id := range ids {
		if weights[i] <= 0 {
			t.Fatalf("non-positive weight for tile %d", id)
		}
		if g.OverlapCap(id, center, 50) <= 0 {
			t.Fatalf("tile %d has weight but no overlap", id)
		}
		total += weights[i]
	}
	// Tiles in CapWeights must match TilesInCap.
	if got := g.AppendTilesInCap(nil, center, 50); len(got) != len(ids) {
		t.Errorf("CapWeights found %d tiles, TilesInCap %d", len(ids), len(got))
	}
	if total <= 0 {
		t.Error("total cap weight should be positive")
	}
}

func TestOverlapCapQMatchesOverlapCap(t *testing.T) {
	g := NewGrid(12, 12)
	f := func(yawRaw, pitchRaw, radRaw uint16, idRaw uint8) bool {
		center := Orientation{
			Yaw:   NormalizeYaw(float64(yawRaw)),
			Pitch: ClampPitch(float64(pitchRaw%180) - 90),
		}
		radius := float64(radRaw%90) + 1
		id := TileID(int(idRaw) % g.NumTiles())
		q := NewCapQuery(center, radius)
		return math.Abs(g.OverlapCapQ(id, q)-g.OverlapCap(id, center, radius)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLocationScoreQMatchesLocationScore(t *testing.T) {
	g := NewGrid(12, 12)
	center := Orientation{Yaw: 33, Pitch: -21}
	queries := DefaultRoIs.Queries(center)
	for id := 0; id < g.NumTiles(); id++ {
		a := DefaultRoIs.LocationScore(g, TileID(id), center)
		b := DefaultRoIs.LocationScoreQ(g, TileID(id), queries)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("tile %d: LocationScoreQ %v != LocationScore %v", id, b, a)
		}
	}
}

func TestNeighbors4(t *testing.T) {
	g := NewGrid(4, 6)
	// Interior tile: 4 neighbors.
	id := TileID(1*6 + 2)
	n := g.Neighbors4(id)
	if len(n) != 4 {
		t.Fatalf("interior tile has %d neighbors", len(n))
	}
	want := map[TileID]bool{TileID(1*6 + 1): true, TileID(1*6 + 3): true, TileID(0*6 + 2): true, TileID(2*6 + 2): true}
	for _, v := range n {
		if !want[v] {
			t.Errorf("unexpected neighbor %d", v)
		}
	}
	// Yaw wrap: column 0's left neighbor is column 5.
	n = g.Neighbors4(TileID(1 * 6))
	foundWrap := false
	for _, v := range n {
		if v == TileID(1*6+5) {
			foundWrap = true
		}
	}
	if !foundWrap {
		t.Error("yaw wrap neighbor missing")
	}
	// Polar tile: 3 neighbors.
	if got := g.Neighbors4(TileID(0)); len(got) != 3 {
		t.Errorf("polar tile has %d neighbors", len(got))
	}
}

// TestCapRadiusWholeSphereAndEmpty: a cap of 180° or more is the whole
// sphere and one of 0° or less is empty on every cap walk, not only in
// OverlapCap. Tiled masking asks for viewport radius + per-chunk head
// displacement, which reaches 180° on the chunks with the most motion;
// before the guard moved into NewCapQuery the cosine wrapped and those
// chunks got the smallest masking region (131 of 144 tiles at 230°, none at
// 360°).
func TestCapRadiusWholeSphereAndEmpty(t *testing.T) {
	g := NewGrid(12, 12)
	o := Orientation{Yaw: 33, Pitch: -21}
	for _, r := range []float64{180, 180.5, 230, 360, 1e6} {
		if got := len(g.AppendTilesInCap(nil, o, r)); got != g.NumTiles() {
			t.Errorf("TilesInCap(r=%v) = %d tiles, want all %d", r, got, g.NumTiles())
		}
		ids, ws := g.CapWeights(o, r)
		if len(ids) != g.NumTiles() {
			t.Errorf("CapWeights(r=%v) = %d tiles, want all %d", r, len(ids), g.NumTiles())
		}
		for k, id := range ids {
			if ws[k] != g.SolidAngleWeight(id) {
				t.Errorf("CapWeights(r=%v) tile %d weight %v, want its whole weight %v", r, id, ws[k], g.SolidAngleWeight(id))
			}
		}
		q := NewCapQuery(o, r)
		for id := 0; id < g.NumTiles(); id++ {
			if a, b := g.OverlapCapQ(TileID(id), q), g.OverlapCap(TileID(id), o, r); a != 1 || b != 1 {
				t.Fatalf("r=%v tile %d: OverlapCapQ %v, OverlapCap %v, want 1", r, id, a, b)
			}
		}
		if got := (Viewport{RadiusDeg: r}).Coverage(g, o, func(id TileID) bool { return id%2 == 0 }); got <= 0.4 || got >= 0.6 {
			t.Errorf("Coverage(r=%v) with every other tile = %v, want about half", r, got)
		}
	}
	for _, r := range []float64{0, -1, -230} {
		if got := g.AppendTilesInCap(nil, o, r); len(got) != 0 {
			t.Errorf("TilesInCap(r=%v) = %d tiles, want none", r, len(got))
		}
		if ids, _ := g.CapWeights(o, r); len(ids) != 0 {
			t.Errorf("CapWeights(r=%v) = %d tiles, want none", r, len(ids))
		}
		q := NewCapQuery(o, r)
		for id := 0; id < g.NumTiles(); id++ {
			if a, b := g.OverlapCapQ(TileID(id), q), g.OverlapCap(TileID(id), o, r); a != 0 || b != 0 {
				t.Fatalf("r=%v tile %d: OverlapCapQ %v, OverlapCap %v, want 0", r, id, a, b)
			}
		}
	}
	// The region must not shrink as the radius grows through 180°.
	prev := 0
	for r := 100.0; r <= 260; r += 10 {
		n := len(g.AppendTilesInCap(nil, o, r))
		if n < prev {
			t.Errorf("TilesInCap shrank from %d to %d tiles at r=%v", prev, n, r)
		}
		prev = n
	}
}
