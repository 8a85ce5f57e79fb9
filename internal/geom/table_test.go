package geom

import (
	"math"
	"math/rand"
	"testing"
)

// maxTableErr is the documented quantization envelope of the default
// TableParams: a table lookup may differ from the exact OverlapCap by at
// most this much per tile. The exact path resolves overlap in 1/16 steps
// (a 4×4 sample lattice), and in the worst case — the cap boundary nearly
// tangent to a tile edge — a sub-bucket center shift flips several lattice
// samples at once; measured worst case across grids and radii is ≈ 0.44.
// docs/PERFORMANCE.md quotes this bound.
const maxTableErr = 0.5

// meanTableErr is the documented mean absolute error across all tiles and
// centers; typical errors (measured ≈ 0.002–0.004) are two orders of
// magnitude below the worst case.
const meanTableErr = 0.01

func tableGrids() []*Grid {
	return []*Grid{NewGrid(12, 12), NewGrid(8, 8), NewGrid(6, 6)}
}

// sweepError compares table and exact overlaps for every tile over a set of
// centers, returning the max and mean absolute per-tile error.
func sweepError(g *Grid, pl *CapPlane, centers []Orientation) (maxErr, meanErr float64) {
	var sum float64
	var n int
	for _, c := range centers {
		lk := pl.Lookup(c)
		for id := 0; id < g.NumTiles(); id++ {
			exact := pl.rois.LocationScore(g, TileID(id), c)
			got := lk.Overlap(TileID(id))
			d := math.Abs(got - exact)
			if d > maxErr {
				maxErr = d
			}
			sum += d
			n++
		}
	}
	return maxErr, sum / float64(n)
}

func TestOverlapTableAccuracy(t *testing.T) {
	for _, g := range tableGrids() {
		tbl := NewOverlapTable(g, TableParams{})
		rng := rand.New(rand.NewSource(42))
		centers := make([]Orientation, 0, 300)
		for i := 0; i < 300; i++ {
			centers = append(centers, Orientation{
				Yaw:   rng.Float64()*360 - 180,
				Pitch: rng.Float64()*180 - 90,
			})
		}
		for _, r := range DefaultRoIs.RadiiDeg {
			pl := tbl.Plane(r)
			maxErr, meanErr := sweepError(g, pl, centers)
			if maxErr > maxTableErr {
				t.Errorf("grid %dx%d r=%v: max |table-exact| = %.3f > %.2f", g.Rows, g.Cols, r, maxErr, maxTableErr)
			}
			if meanErr > meanTableErr {
				t.Errorf("grid %dx%d r=%v: mean |table-exact| = %.4f > %.3f", g.Rows, g.Cols, r, meanErr, meanTableErr)
			}
		}
	}
}

// TestOverlapTableSeamAndPoles is the regression test for the yaw wrap
// (±180°) and the pitch poles: the table's column-shift trick must agree
// with the exact path exactly where tiles straddle the seam and where the
// equirectangular rows degenerate at ±90° pitch.
func TestOverlapTableSeamAndPoles(t *testing.T) {
	for _, g := range tableGrids() {
		tbl := NewOverlapTable(g, TableParams{})
		var centers []Orientation
		// Dense sweep across the yaw seam at several pitches.
		for yaw := -183.0; yaw <= 183; yaw += 0.75 {
			for _, pitch := range []float64{-60, -20, 0, 35, 70} {
				centers = append(centers, Orientation{Yaw: yaw, Pitch: pitch})
			}
		}
		// Polar caps: centers at and around both poles.
		for _, pitch := range []float64{90, 89.5, 88, -88, -89.5, -90} {
			for yaw := -180.0; yaw < 180; yaw += 30 {
				centers = append(centers, Orientation{Yaw: yaw, Pitch: pitch})
			}
		}
		for _, r := range []float64{25, 50, 65} {
			pl := tbl.Plane(r)
			maxErr, _ := sweepError(g, pl, centers)
			if maxErr > maxTableErr {
				t.Errorf("grid %dx%d r=%v: seam/pole max |table-exact| = %.3f > %.2f",
					g.Rows, g.Cols, r, maxErr, maxTableErr)
			}
			// The wrap itself must be seamless: a center just past +180 and
			// its alias just past -180 are the same direction and must
			// produce identical rows.
			for _, pitch := range []float64{-45, 0, 45} {
				a := pl.Lookup(Orientation{Yaw: 179.999, Pitch: pitch})
				b := pl.Lookup(Orientation{Yaw: -180.001, Pitch: pitch})
				for id := 0; id < g.NumTiles(); id++ {
					if a.Overlap(TileID(id)) != b.Overlap(TileID(id)) {
						t.Fatalf("grid %dx%d r=%v: yaw wrap mismatch at tile %d", g.Rows, g.Cols, r, id)
					}
				}
			}
		}
	}
}

// TestOverlapTableYawShiftInvariance pins the column-shift symmetry the
// table is built on: rotating the center by exactly one tile column width
// must reproduce the same overlaps one column over.
func TestOverlapTableYawShiftInvariance(t *testing.T) {
	g := NewGrid(12, 12)
	pl := NewOverlapTable(g, TableParams{}).Plane(50)
	dyaw := 360.0 / float64(g.Cols)
	for _, base := range []Orientation{{Yaw: 3, Pitch: 10}, {Yaw: -170, Pitch: -40}, {Yaw: 120, Pitch: 75}} {
		shifted := Orientation{Yaw: NormalizeYaw(base.Yaw + dyaw), Pitch: base.Pitch}
		la, lb := pl.Lookup(base), pl.Lookup(shifted)
		for id := 0; id < g.NumTiles(); id++ {
			r, c := g.RowCol(TileID(id))
			id2 := TileID(r*g.Cols + (c+1)%g.Cols)
			if got, want := lb.Overlap(id2), la.Overlap(TileID(id)); got != want {
				t.Fatalf("shift invariance broken: tile %d vs %d: %v != %v", id, id2, got, want)
			}
		}
	}
}

// TestPlaneAppendTilesMatchesExactDiscovery checks that the table's
// non-zero tile lists agree with the exact TilesInCap at the quantized
// centers themselves (where table and exact coincide up to fp noise).
func TestPlaneAppendTilesMatchesExactDiscovery(t *testing.T) {
	g := NewGrid(12, 12)
	pl := NewOverlapTable(g, TableParams{}).Plane(65)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		c := Orientation{Yaw: rng.Float64()*360 - 180, Pitch: rng.Float64()*170 - 85}
		lk := pl.Lookup(c)
		got := lk.AppendTiles(nil)
		seen := map[TileID]bool{}
		for _, id := range got {
			if seen[id] {
				t.Fatalf("duplicate tile %d in AppendTiles", id)
			}
			seen[id] = true
			if lk.Overlap(id) <= 0 {
				t.Fatalf("AppendTiles returned tile %d with zero overlap", id)
			}
		}
		// Consistency: every tile not listed must have zero table overlap.
		for id := 0; id < g.NumTiles(); id++ {
			if !seen[TileID(id)] && lk.Overlap(TileID(id)) != 0 {
				t.Fatalf("tile %d has overlap %v but is not in AppendTiles", id, lk.Overlap(TileID(id)))
			}
		}
	}
}

// TestSharedTableIdentity checks the process-wide cache keys by geometry.
func TestSharedTableIdentity(t *testing.T) {
	a := SharedTable(NewGrid(12, 12), TableParams{})
	b := SharedTable(NewGrid(12, 12), TableParams{})
	if a != b {
		t.Error("same-geometry grids should share one table")
	}
	if SharedTable(NewGrid(8, 8), TableParams{}) == a {
		t.Error("different geometries must not share a table")
	}
	if SharedTable(NewGrid(12, 12), TableParams{YawStepsPerTile: 4}) == a {
		t.Error("different quantization must not share a table")
	}
	if p1, p2 := a.Plane(50), b.Plane(50); p1 != p2 {
		t.Error("same radius should resolve to one plane")
	}
}

func TestAppendTilesInCapMatchesTilesInCap(t *testing.T) {
	g := NewGrid(12, 12)
	c := Orientation{Yaw: 170, Pitch: -30}
	want := Viewport{RadiusDeg: 50}.Tiles(g, c)
	buf := make([]TileID, 0, 8)
	got := g.AppendTilesInCap(buf[:0], c, 50)
	if len(got) != len(want) {
		t.Fatalf("AppendTilesInCap len %d != Viewport.Tiles len %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
	if g.AppendTilesInCap(nil, c, 0) != nil {
		t.Error("zero radius should append nothing")
	}
}
