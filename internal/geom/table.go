package geom

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"unsafe"
)

// This file implements precomputed overlap tables: the spherical-cap overlap
// fractions that drive the location score (§3.1) evaluated once per
// quantized view orientation instead of re-sampling the sphere on every
// call. Dragonfly's scheduler refines fetch decisions every 100 ms and
// walks the whole tile grid each time, so OverlapCapQ sits on the hottest
// path of every session; viewport-adaptive systems classically amortize it
// with per-tile weight tables, and the equirectangular tiling makes that
// cheap here because the grid is yaw-periodic: rotating the cap center by
// exactly one tile column maps tile (r, c) onto tile (r, c+1). A table
// therefore only needs yaw resolution within a single tile column; the
// column shift is applied at lookup time.
//
// A plane holds one RoI set's location score — the in-order sum of the
// tile's overlaps with each of the set's caps — so the scheduler reads one
// value where it would otherwise sum one per radius. Most cells of a plane
// are zero (a 65° cap touches about a third of the tiles), so a plane keeps
// only the cells a cap touches: per (bucket, row), the cyclic run of
// base-frame columns that hold non-zero values, with those values packed.
//
// Accuracy: a table lookup evaluates the exact OverlapCapQ at the nearest
// quantized center. With the default TableParams the quantized center is
// within ~1.2° of the true center on the paper's 12×12 grid. Because the
// exact path itself resolves overlap on a 4×4 sample lattice (1/16 steps),
// the per-tile difference is tiny on average (≈ 0.002–0.004 absolute) but
// can reach ≈ 0.44 on a tile whose edge is nearly tangent to the cap
// boundary, where a sub-bucket center shift flips several lattice samples
// at once; see TestOverlapTableAccuracy for the measured envelope. Callers
// that cannot tolerate quantization keep using OverlapCapQ — the exact
// path remains the fallback and the reference in tests.

// TableParams sets the overlap-table quantization. Finer steps cost
// memory and build time linearly and shrink the quantization error
// proportionally; see docs/PERFORMANCE.md for the measured trade-off.
type TableParams struct {
	// YawStepsPerTile is the number of yaw buckets within one tile column
	// width (360°/Cols). 0 means defaultYawStepsPerTile.
	YawStepsPerTile int
	// PitchStepsPerTile is the number of pitch buckets within one tile row
	// height (180°/Rows). 0 means defaultPitchStepsPerTile.
	PitchStepsPerTile int
}

// The default quantization: 16 steps per tile edge keeps the quantized
// center within ~1.2° of the true center on the paper's 12×12 grid while a
// DefaultRoIs plane stays around 1.75 MB.
const (
	defaultYawStepsPerTile   = 16
	defaultPitchStepsPerTile = 16
)

func (p TableParams) withDefaults() TableParams {
	if p.YawStepsPerTile <= 0 {
		p.YawStepsPerTile = defaultYawStepsPerTile
	}
	if p.PitchStepsPerTile <= 0 {
		p.PitchStepsPerTile = defaultPitchStepsPerTile
	}
	return p
}

// OverlapTable caches CapPlanes — one per RoI set — for one grid
// geometry. Planes are built lazily on first request and are immutable
// afterwards, so a table can be shared by any number of concurrent
// sessions (see SharedTable).
type OverlapTable struct {
	g *Grid
	p TableParams

	mu     sync.Mutex
	planes []*CapPlane // a handful at most: searched by radii
}

// NewOverlapTable creates an empty table for the grid. Most callers want
// SharedTable instead, which reuses tables process-wide.
func NewOverlapTable(g *Grid, p TableParams) *OverlapTable {
	return &OverlapTable{g: g, p: p.withDefaults()}
}

// tableKey identifies a table by grid geometry and quantization — not by
// grid pointer, so two manifests with the same tiling share one table.
type tableKey struct {
	rows, cols int
	p          TableParams
}

var sharedTables sync.Map // tableKey -> *OverlapTable

// SharedTable returns the process-wide overlap table for the grid's
// dimensions, creating it on first use. Sweeps with hundreds of sessions
// over the same tiling build each plane exactly once.
func SharedTable(g *Grid, p TableParams) *OverlapTable {
	key := tableKey{rows: g.Rows, cols: g.Cols, p: p.withDefaults()}
	if t, ok := sharedTables.Load(key); ok {
		return t.(*OverlapTable)
	}
	t, _ := sharedTables.LoadOrStore(key, NewOverlapTable(g, p))
	return t.(*OverlapTable)
}

// RoIPlane returns the plane of the RoI set's location score, building it
// on first use: per tile, the radii's overlaps added to 0.0 in radius
// order. Safe for concurrent use.
func (t *OverlapTable) RoIPlane(rs RoISet) *CapPlane {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, pl := range t.planes {
		if slices.EqualFunc(pl.rois.RadiiDeg, rs.RadiiDeg, sameBits) {
			return pl
		}
	}
	pl := buildPlane(t.g, t.p, rs)
	t.planes = append(t.planes, pl)
	return pl
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// Plane returns the plane of one cap radius: RoIPlane of a one-radius set.
func (t *OverlapTable) Plane(radiusDeg float64) *CapPlane {
	return t.RoIPlane(RoISet{RadiiDeg: []float64{radiusDeg}})
}

// CapPlane is the precomputed location score of one (grid, RoI set): for
// every quantized center orientation, the in-order sum of every tile's
// exact overlap fractions with the set's caps at that center. Immutable
// after build.
type CapPlane struct {
	g          *Grid
	rois       RoISet
	yawSteps   int     // buckets within one tile column width
	pitchSteps int     // buckets over the full 180° pitch range
	dyawTile   float64 // 360 / Cols

	// runs[bucket*Rows + row] locates the non-zero values of one grid row
	// for the cap centered in the base column (yaw bucket ys of column 0,
	// bucket = ys*pitchSteps + ps); every column outside the run reads 0.
	runs []planeRun
	vals []float64
	// none is one empty run per row: the lookup of a non-finite center.
	none []planeRun
}

// planeRun is the cyclic run of base-frame columns start, start+1, …
// (mod Cols) of one row, n long, whose values are vals[off : off+n]. It
// holds every non-zero value of the row and starts and ends on one; a zero
// inside it is stored. An offset past 2^32 would need a 32 GiB vals.
type planeRun struct{ off, start, n uint32 }

func buildPlane(g *Grid, p TableParams, rs RoISet) *CapPlane {
	p = p.withDefaults()
	pl := &CapPlane{
		g:          g,
		rois:       RoISet{RadiiDeg: slices.Clone(rs.RadiiDeg)},
		yawSteps:   p.YawStepsPerTile,
		pitchSteps: p.PitchStepsPerTile * g.Rows,
		dyawTile:   360.0 / float64(g.Cols),
	}
	n := g.NumTiles()
	buckets := pl.yawSteps * pl.pitchSteps
	pl.runs = make([]planeRun, buckets*g.Rows)
	pl.none = make([]planeRun, g.Rows)
	sum := make([]float64, n)
	vals := make([]float64, 0, buckets*n) // every cell: no growth; trimmed below
	dpitch := 180.0 / float64(pl.pitchSteps)
	for ys := 0; ys < pl.yawSteps; ys++ {
		yaw := NormalizeYaw(-180 + (float64(ys)+0.5)*pl.dyawTile/float64(pl.yawSteps))
		for ps := 0; ps < pl.pitchSteps; ps++ {
			center := Orientation{Yaw: yaw, Pitch: 90 - (float64(ps)+0.5)*dpitch}
			clear(sum)
			for _, r := range rs.RadiiDeg {
				q := NewCapQuery(center, r)
				// A tile the walk skips, or whose overlap is 0, adds
				// nothing: x + 0 is x for the non-negative sums here.
				g.walkCap(q, func(id TileID) {
					if v := g.OverlapCapQ(id, q); v > 0 {
						sum[id] += v
					}
				})
			}
			bucket := ys*pl.pitchSteps + ps
			for row := 0; row < g.Rows; row++ {
				cells := sum[row*g.Cols : (row+1)*g.Cols]
				start, cnt := cyclicRun(cells)
				pl.runs[bucket*g.Rows+row] = planeRun{off: uint32(len(vals)), start: uint32(start), n: uint32(cnt)}
				end := start + cnt
				vals = append(vals, cells[start:min(end, g.Cols)]...)
				vals = append(vals, cells[:max(end-g.Cols, 0)]...) // the part that wraps
			}
		}
	}
	pl.vals = append([]float64(nil), vals...)
	return pl
}

// cyclicRun returns the shortest cyclic run of cells [start, start+n)
// (mod len(cells)) that holds every positive cell: the complement of the
// longest cyclic run of zeros. n is 0 when no cell is positive.
func cyclicRun(cells []float64) (start, n int) {
	first := slices.IndexFunc(cells, func(v float64) bool { return v > 0 })
	if first < 0 {
		return 0, 0
	}
	cols := len(cells)
	start, gap, prev := first, 0, 0
	for k := 1; k <= cols; k++ { // k == cols revisits first, closing the wrap
		c := (first + k) % cols
		if cells[c] > 0 {
			if k-prev-1 > gap {
				start, gap = c, k-prev-1
			}
			prev = k
		}
	}
	return start, cols - gap
}

// memoryBytes reports the bytes the plane holds — its packed values and
// its run headers — for capacity planning (docs/PERFORMANCE.md).
func (pl *CapPlane) memoryBytes() int {
	return 8*len(pl.vals) + int(unsafe.Sizeof(planeRun{}))*(len(pl.runs)+len(pl.none))
}

// Lookup quantizes a center orientation into the plane's bucket and column
// shift. The returned PlaneLookup answers per-tile queries with a run
// header and an array read; callers evaluating many tiles against one
// center should hoist the Lookup out of the loop. A center with a NaN or
// infinite coordinate overlaps nothing, as on the exact path, whose cap
// vector is then NaN.
func (pl *CapPlane) Lookup(center Orientation) PlaneLookup {
	if !isFinite(center.Yaw) || !isFinite(center.Pitch) {
		return PlaneLookup{runs: pl.none, cols: pl.g.Cols}
	}
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
	rows := pl.g.Rows
	return PlaneLookup{
		runs:  pl.runs[bucket*rows : (bucket+1)*rows],
		vals:  pl.vals,
		shift: shift,
		cols:  pl.g.Cols,
	}
}

// isFinite reports whether x is neither NaN nor infinite.
func isFinite(x float64) bool { return x-x == 0 }

// PlaneLookup is a resolved (plane, quantized center) pair. The zero value
// is not meaningful; obtain one from CapPlane.Lookup.
type PlaneLookup struct {
	runs  []planeRun // one per grid row
	vals  []float64
	shift int
	cols  int
}

// Overlap returns the plane's value for tile id. Allocation-free.
func (l PlaneLookup) Overlap(id TileID) float64 {
	row := int(id) / l.cols
	return l.OverlapAt(row, int(id)-row*l.cols)
}

// OverlapAt is Overlap for the tile at (row, col), for callers that put
// one tile to many lookups and split it once.
func (l PlaneLookup) OverlapAt(row, col int) float64 {
	r := l.runs[row]
	k := col - l.shift - int(r.start) // position in the run, in (-2·cols, cols)
	if k < 0 {
		k += l.cols
		if k < 0 {
			k += l.cols
		}
	}
	if k >= int(r.n) {
		return 0
	}
	return l.vals[int(r.off)+k]
}

// AppendTiles appends the IDs of every tile with a non-zero value to dst
// and returns it — the table-driven TilesInCap of the outermost radius,
// allocation-free once dst has capacity. Tiles are appended in base-frame
// order (row by row, columns ascending before the shift), which is
// deterministic for a given center bucket.
func (l PlaneLookup) AppendTiles(dst []TileID) []TileID {
	for row, r := range l.runs {
		// Positions [0, split) are columns start…Cols-1; [split, n) wrap
		// round to columns 0…, which come first in base-frame order.
		split := min(int(r.n), l.cols-int(r.start))
		dst = l.appendRun(dst, row, r, split, int(r.n), -split)
		dst = l.appendRun(dst, row, r, 0, split, int(r.start))
	}
	return dst
}

// appendRun appends the tiles at positions [from, to) of one row's run
// whose values are non-zero; position k is base-frame column k+base.
func (l PlaneLookup) appendRun(dst []TileID, row int, r planeRun, from, to, base int) []TileID {
	for k, v := range l.vals[int(r.off)+from : int(r.off)+to] {
		if v > 0 {
			c := from + k + base + l.shift
			if c >= l.cols {
				c -= l.cols
			}
			dst = append(dst, TileID(row*l.cols+c))
		}
	}
	return dst
}

// String implements fmt.Stringer for diagnostics.
func (pl *CapPlane) String() string {
	return fmt.Sprintf("geom.CapPlane{r=%v° grid=%dx%d buckets=%dx%d %d KiB}",
		pl.rois.RadiiDeg, pl.g.Rows, pl.g.Cols, pl.yawSteps, pl.pitchSteps, pl.memoryBytes()/1024)
}
