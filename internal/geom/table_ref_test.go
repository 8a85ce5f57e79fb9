package geom

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
)

// This file is the test oracle for table.go's packed planes: the overlap
// table as it stood when every radius had its own dense plane, one float64
// per (bucket, tile) and a list of the non-zero tiles per bucket. Its
// build, Lookup, Overlap and AppendTiles are kept as they were, renamed
// densePlane and denseLookup, so
// TestRoIPlaneMatchesDense and FuzzRoIPlane can require an RoI plane to
// read the in-order sum of the per-radius dense values, bit for bit, and to
// list the outermost dense plane's tiles in the same order.

// densePlane is the dense one-radius plane.
type densePlane struct {
	g          *Grid
	radiusDeg  float64
	yawSteps   int     // buckets within one tile column width
	pitchSteps int     // buckets over the full 180° pitch range
	dyawTile   float64 // 360 / Cols

	// data[(ys*pitchSteps+ps)*numTiles + tile] is the overlap of `tile`
	// with the cap centered in the base column (yaw bucket ys of column 0).
	data []float64
	// nonzero[ys*pitchSteps+ps] lists the base-frame tiles with data > 0,
	// in ascending tile order.
	nonzero [][]TileID
}

func buildDensePlane(g *Grid, p TableParams, radiusDeg float64) *densePlane {
	p = p.withDefaults()
	pl := &densePlane{
		g:          g,
		radiusDeg:  radiusDeg,
		yawSteps:   p.YawStepsPerTile,
		pitchSteps: p.PitchStepsPerTile * g.Rows,
		dyawTile:   360.0 / float64(g.Cols),
	}
	n := g.NumTiles()
	buckets := pl.yawSteps * pl.pitchSteps
	pl.data = make([]float64, buckets*n)
	pl.nonzero = make([][]TileID, buckets)
	dpitch := 180.0 / float64(pl.pitchSteps)
	for ys := 0; ys < pl.yawSteps; ys++ {
		yaw := NormalizeYaw(-180 + (float64(ys)+0.5)*pl.dyawTile/float64(pl.yawSteps))
		for ps := 0; ps < pl.pitchSteps; ps++ {
			center := Orientation{Yaw: yaw, Pitch: 90 - (float64(ps)+0.5)*dpitch}
			q := NewCapQuery(center, radiusDeg)
			bucket := ys*pl.pitchSteps + ps
			row := pl.data[bucket*n : (bucket+1)*n]
			var ids []TileID
			// Tiles the walk skips keep data's zero, the bits of 0/tileWeight.
			g.walkCap(q, func(id TileID) {
				if v := g.OverlapCapQ(id, q); v > 0 {
					row[id] = v
					ids = append(ids, id)
				}
			})
			pl.nonzero[bucket] = ids
		}
	}
	return pl
}

// Lookup quantizes a center orientation into the plane's bucket and column
// shift.
func (pl *densePlane) Lookup(center Orientation) denseLookup {
	o := center.Normalize()
	u := (o.Yaw + 180) / pl.dyawTile
	shift := int(u)
	if shift >= pl.g.Cols { // yaw == 180 - ε rounding
		shift = pl.g.Cols - 1
	}
	ys := int((u - float64(shift)) * float64(pl.yawSteps))
	if ys >= pl.yawSteps {
		ys = pl.yawSteps - 1
	}
	if ys < 0 {
		ys = 0
	}
	ps := int((90 - o.Pitch) / 180 * float64(pl.pitchSteps))
	if ps >= pl.pitchSteps {
		ps = pl.pitchSteps - 1
	}
	if ps < 0 {
		ps = 0
	}
	bucket := ys*pl.pitchSteps + ps
	n := pl.g.NumTiles()
	return denseLookup{
		vals:  pl.data[bucket*n : (bucket+1)*n],
		ids:   pl.nonzero[bucket],
		shift: shift,
		cols:  pl.g.Cols,
	}
}

// denseLookup is a resolved (dense plane, quantized center) pair.
type denseLookup struct {
	vals  []float64
	ids   []TileID
	shift int
	cols  int
}

// Overlap returns the overlap fraction of tile id.
func (l denseLookup) Overlap(id TileID) float64 {
	col := int(id) % l.cols
	return l.OverlapAt(int(id)-col, col)
}

// OverlapAt is Overlap for a tile given as its row base (id - id%Cols) and
// column.
func (l denseLookup) OverlapAt(rowBase, col int) float64 {
	c := col - l.shift
	if c < 0 {
		c += l.cols
	}
	return l.vals[rowBase+c]
}

// AppendTiles appends the IDs of every tile with non-zero overlap to dst,
// in base-frame order.
func (l denseLookup) AppendTiles(dst []TileID) []TileID {
	for _, base := range l.ids {
		c := int(base)%l.cols + l.shift
		if c >= l.cols {
			c -= l.cols
		}
		dst = append(dst, TileID(int(base)-int(base)%l.cols+c))
	}
	return dst
}

// checkAgainstDense compares an RoI plane's lookup with the per-radius
// dense lookups at one center: every tile's value must be the in-order sum
// of the dense values, bit for bit, and AppendTiles must list the
// outermost dense plane's tiles in its order. It returns a description of
// the first difference, or "". bufs are AppendTiles scratch.
func checkAgainstDense(g *Grid, got PlaneLookup, want []denseLookup, bufs *[2][]TileID) string {
	for id := TileID(0); int(id) < g.NumTiles(); id++ {
		sum := 0.0
		for _, l := range want {
			sum += l.Overlap(id)
		}
		if v := got.Overlap(id); math.Float64bits(v) != math.Float64bits(sum) {
			return fmt.Sprintf("tile %d: plane %v, dense sum %v", id, v, sum)
		}
	}
	bufs[0], bufs[1] = got.AppendTiles(bufs[0][:0]), bufs[1][:0]
	if len(want) > 0 {
		bufs[1] = want[len(want)-1].AppendTiles(bufs[1])
	}
	if !slices.Equal(bufs[0], bufs[1]) {
		return fmt.Sprintf("AppendTiles %v, outermost dense %v", bufs[0], bufs[1])
	}
	return ""
}

// TestRoIPlaneMatchesDense holds the packed RoI plane to the dense
// per-radius planes it replaces, on every tiling the experiments use and
// every RoI set in the tree (DefaultRoIs, and ext-roi's single ring and
// wide guard band): at every (yaw bucket, pitch bucket) and every column
// shift, every tile reads the in-order sum of the dense values and
// AppendTiles lists the outermost plane's tiles in the same order.
func TestRoIPlaneMatchesDense(t *testing.T) {
	sets := []RoISet{DefaultRoIs, {RadiiDeg: []float64{50}}, {RadiiDeg: []float64{25, 50, 85}}}
	for _, dim := range [][2]int{{12, 12}, {8, 8}, {6, 6}, {24, 18}} {
		g := NewGrid(dim[0], dim[1])
		dense := map[float64]*densePlane{}
		for _, rs := range sets {
			pl := buildPlane(g, TableParams{}, rs)
			var dps []*densePlane
			for _, r := range rs.RadiiDeg {
				if dense[r] == nil {
					dense[r] = buildDensePlane(g, TableParams{}, r)
				}
				dps = append(dps, dense[r])
			}
			checked := 0
			ls := make([]denseLookup, len(dps))
			var bufs [2][]TileID
			for ys := 0; ys < pl.yawSteps; ys++ {
				for ps := 0; ps < pl.pitchSteps; ps++ {
					for shift := 0; shift < g.Cols; shift++ {
						c := Orientation{
							Yaw:   -180 + (float64(shift)+(float64(ys)+0.5)/float64(pl.yawSteps))*pl.dyawTile,
							Pitch: 90 - (float64(ps)+0.5)*180/float64(pl.pitchSteps),
						}
						for i, dp := range dps {
							ls[i] = dp.Lookup(c)
						}
						want := &ls[0].vals[0]
						bucket := ys*pl.pitchSteps + ps
						if ls[0].shift != shift || want != &dps[0].data[bucket*g.NumTiles()] {
							t.Fatalf("%dx%d: center %+v does not quantize to bucket (%d, %d) shift %d", g.Rows, g.Cols, c, ys, ps, shift)
						}
						if msg := checkAgainstDense(g, pl.Lookup(c), ls, &bufs); msg != "" {
							t.Fatalf("%dx%d %v bucket (%d, %d) shift %d: %s", g.Rows, g.Cols, rs.RadiiDeg, ys, ps, shift, msg)
						}
						checked++
					}
				}
			}
			t.Logf("%dx%d %v: %d (bucket, shift) pairs, %d KiB packed against %d KiB dense",
				g.Rows, g.Cols, rs.RadiiDeg, checked, pl.memoryBytes()/1024, len(rs.RadiiDeg)*8*len(dps[0].data)/1024)
		}
	}
}

// FuzzRoIPlane is TestRoIPlaneMatchesDense at any center — NaN, infinite,
// past the poles, far outside [-180, 180) — for one to three strictly
// increasing radii of any bits (≤ 0 is empty, ≥ 180 the whole sphere), on
// grids of 1–8 rows and 1–16 columns at 1–4 steps per tile edge. A
// non-finite center must read 0 everywhere and list no tile, as the exact
// path does; the dense oracle, which quantized it anyway, is not consulted
// there.
func FuzzRoIPlane(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, s := range []struct {
		rows, cols, ySteps, pSteps, nRadii uint8
		r0, r1, r2, yaw, pitch             float64
	}{
		{4, 8, 2, 2, 3, 25, 50, 65, 10, 20},
		{1, 1, 1, 1, 1, 50, 0, 0, 0, 0},
		{8, 16, 4, 4, 3, 25, 50, 85, 179.999, -89.9},
		{3, 5, 3, 1, 2, -5, 190, 0, -180, 90},
		{2, 7, 1, 3, 2, 1e-9, 179.9999999, 0, 1e300, -1e-300},
		{5, 6, 2, 2, 3, 10, 20, 30, nan, 0},
		{5, 6, 2, 2, 3, 10, 20, 30, 0, -inf},
		{5, 6, 2, 2, 1, nan, 0, 0, 33, 120},
		{6, 4, 2, 4, 2, 40, inf, 0, -75, -95},
	} {
		f.Add(s.rows, s.cols, s.ySteps, s.pSteps, s.nRadii, s.r0, s.r1, s.r2, s.yaw, s.pitch)
	}
	f.Fuzz(func(t *testing.T, rows, cols, ySteps, pSteps, nRadii uint8, r0, r1, r2, yaw, pitch float64) {
		g := NewGrid(1+int(rows)%8, 1+int(cols)%16)
		p := TableParams{YawStepsPerTile: 1 + int(ySteps)%4, PitchStepsPerTile: 1 + int(pSteps)%4}
		radii := []float64{r0, r1, r2}[:1+int(nRadii)%3]
		for i := 1; i < len(radii); i++ {
			if !(radii[i-1] < radii[i]) {
				return // an RoISet's radii are strictly increasing
			}
		}
		rs := RoISet{RadiiDeg: radii}
		c := Orientation{Yaw: yaw, Pitch: pitch}
		got := NewOverlapTable(g, p).RoIPlane(rs).Lookup(c)
		if !isFinite(yaw) || !isFinite(pitch) {
			for id := TileID(0); int(id) < g.NumTiles(); id++ {
				if v := got.Overlap(id); v != 0 {
					t.Fatalf("%dx%d center %+v: tile %d reads %v, the exact path 0", g.Rows, g.Cols, c, id, v)
				}
			}
			if tiles := got.AppendTiles(nil); len(tiles) != 0 {
				t.Fatalf("%dx%d center %+v: AppendTiles %v, the exact path none", g.Rows, g.Cols, c, tiles)
			}
			return
		}
		want := make([]denseLookup, len(radii))
		for i, r := range radii {
			want[i] = buildDensePlane(g, p, r).Lookup(c)
		}
		if msg := checkAgainstDense(g, got, want, new([2][]TileID)); msg != "" {
			t.Fatalf("%dx%d steps %+v radii %v center %+v: %s", g.Rows, g.Cols, p, radii, c, msg)
		}
	})
}

// TestRoIPlaneFootprint pins what the DefaultRoIs plane holds on the
// paper's 12×12 grid: its memoryBytes, against the 3 × 3.4 MiB of the dense
// per-radius planes it replaces, and the heap it really takes — the live
// heap grows by memoryBytes, within 2 %, when the plane is built.
func TestRoIPlaneFootprint(t *testing.T) {
	const want = 1_751_632 // bytes
	g := NewGrid(12, 12)
	var before, after runtime.MemStats
	liveHeap := func(ms *runtime.MemStats) {
		runtime.GC()
		runtime.GC() // the second frees what sync.Pools kept through the first
		runtime.ReadMemStats(ms)
	}
	liveHeap(&before)
	pl := buildPlane(g, TableParams{}, DefaultRoIs)
	liveHeap(&after)
	if got := pl.memoryBytes(); got != want {
		t.Errorf("12x12 DefaultRoIs plane holds %d bytes, pinned %d", got, want)
	}
	dense := 3 * 8 * defaultYawStepsPerTile * defaultPitchStepsPerTile * g.Rows * g.NumTiles()
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if d := math.Abs(float64(grew-int64(pl.memoryBytes()))) / float64(pl.memoryBytes()); d > 0.02 {
		t.Errorf("building the plane grew the live heap by %d bytes, %.1f%% off its memoryBytes %d", grew, 100*d, pl.memoryBytes())
	}
	t.Logf("12x12 DefaultRoIs: %d bytes packed (%.3f× the %d of three dense planes); heap grew %d", pl.memoryBytes(), float64(pl.memoryBytes())/float64(dense), dense, grew)
	runtime.KeepAlive(pl)
}

// TestNonFiniteCenterOverlapsNothing: a center with a NaN or infinite
// coordinate reads 0 for every tile and lists no tile, as the exact path
// does, instead of indexing the plane at int(NaN) or reading the north
// pole's bucket.
func TestNonFiniteCenterOverlapsNothing(t *testing.T) {
	g := NewGrid(12, 12)
	pl := NewOverlapTable(g, TableParams{}).RoIPlane(DefaultRoIs)
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []Orientation{{Yaw: nan}, {Pitch: nan}, {Yaw: inf}, {Yaw: -inf, Pitch: 10}, {Pitch: inf}, {Yaw: 30, Pitch: -inf}} {
		lk := pl.Lookup(c)
		for id := TileID(0); int(id) < g.NumTiles(); id++ {
			if v, exact := lk.Overlap(id), DefaultRoIs.LocationScore(g, id, c); v != 0 || exact != 0 {
				t.Fatalf("center %+v tile %d: table %v, exact %v; want 0", c, id, v, exact)
			}
		}
		if tiles := lk.AppendTiles(nil); len(tiles) != 0 {
			t.Fatalf("center %+v: AppendTiles %v, want none", c, tiles)
		}
		if tiles := g.AppendTilesInCap(nil, c, DefaultRoIs.MaxRadius()); len(tiles) != 0 {
			t.Fatalf("center %+v: exact TilesInCap %v, want none", c, tiles)
		}
	}
}

// TestPlaneRunsHoldInteriorZeros covers what no real cap produces: a row
// whose non-zero columns are not one cyclic run. The shortest run holding
// them all keeps the zero inside it, and AppendTiles skips that zero.
func TestPlaneRunsHoldInteriorZeros(t *testing.T) {
	for _, tc := range []struct {
		cells    []float64
		start, n int
	}{
		{[]float64{0, 0, 0, 0}, 0, 0},
		{[]float64{1, 1, 1, 1}, 0, 4},
		{[]float64{0, 0, 1, 0}, 2, 1},
		{[]float64{1, 0, 0, 1}, 3, 2},
		{[]float64{1, 0, 1, 0, 0, 0}, 0, 3},
		{[]float64{0, 1, 0, 0, 1, 0, 1}, 4, 5},
	} {
		start, n := cyclicRun(tc.cells)
		if start != tc.start || n != tc.n {
			t.Errorf("cyclicRun(%v) = (%d, %d), want (%d, %d)", tc.cells, start, n, tc.start, tc.n)
		}
	}
	cols := 7
	vals := []float64{0.5, 0, 0.25, 0, 0, 0.75}
	l := PlaneLookup{runs: []planeRun{{off: 0, start: 4, n: 6}}, vals: vals, shift: 2, cols: cols}
	// Base columns 4, 5, 6, 0, 1, 2 hold 0.5, 0, 0.25, 0, 0, 0.75; shifted
	// by 2 they are columns 6, 0, 1, 2, 3, 4.
	wantVals := []float64{0, 0.25, 0, 0, 0.75, 0, 0.5}
	for c, want := range wantVals {
		if got := l.OverlapAt(0, c); got != want {
			t.Errorf("column %d reads %v, want %v", c, got, want)
		}
	}
	if got, want := l.AppendTiles(nil), []TileID{4, 6, 1}; !slices.Equal(got, want) {
		t.Errorf("AppendTiles %v, want %v (base columns 2, 4, 6 shifted by 2)", got, want)
	}
}
