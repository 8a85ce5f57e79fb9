package geom

import (
	"fmt"
	"math"
	"sync"
)

// This file implements precomputed overlap tables: the spherical-cap overlap
// fractions that drive the location score (§3.1) evaluated once per
// quantized view orientation instead of re-sampling the sphere on every
// call. Dragonfly's scheduler refines fetch decisions every 100 ms and
// walks the whole tile grid each time, so OverlapCap sits on the hottest
// path of every session; viewport-adaptive systems classically amortize it
// with per-tile weight tables, and the equirectangular tiling makes that
// cheap here because the grid is yaw-periodic: rotating the cap center by
// exactly one tile column maps tile (r, c) onto tile (r, c+1). A table
// therefore only needs yaw resolution within a single tile column; the
// column shift is applied at lookup time.
//
// Accuracy: a table lookup evaluates the exact OverlapCap at the nearest
// quantized center. With the default TableParams the quantized center is
// within ~1.2° of the true center on the paper's 12×12 grid. Because the
// exact path itself resolves overlap on a 4×4 sample lattice (1/16 steps),
// the per-tile difference is tiny on average (≈ 0.002–0.004 absolute) but
// can reach ≈ 0.44 on a tile whose edge is nearly tangent to the cap
// boundary, where a sub-bucket center shift flips several lattice samples
// at once; see TestOverlapTableAccuracy for the measured envelope. Callers
// that cannot tolerate quantization keep using OverlapCap / OverlapCapQ —
// the exact path remains the fallback and the reference in tests.

// TableParams sets the overlap-table quantization. Finer steps cost
// memory and build time linearly and shrink the quantization error
// proportionally; see docs/PERFORMANCE.md for the measured trade-off.
type TableParams struct {
	// YawStepsPerTile is the number of yaw buckets within one tile column
	// width (360°/Cols). 0 means DefaultYawStepsPerTile.
	YawStepsPerTile int
	// PitchStepsPerTile is the number of pitch buckets within one tile row
	// height (180°/Rows). 0 means DefaultPitchStepsPerTile.
	PitchStepsPerTile int
}

// The default quantization: 16 steps per tile edge keeps the quantized
// center within ~1.2° of the true center on the paper's 12×12 grid while a
// 3-radius RoI table stays around 10 MB.
const (
	DefaultYawStepsPerTile   = 16
	DefaultPitchStepsPerTile = 16
)

func (p TableParams) withDefaults() TableParams {
	if p.YawStepsPerTile <= 0 {
		p.YawStepsPerTile = DefaultYawStepsPerTile
	}
	if p.PitchStepsPerTile <= 0 {
		p.PitchStepsPerTile = DefaultPitchStepsPerTile
	}
	return p
}

// OverlapTable caches CapPlanes — one per cap radius — for one grid
// geometry. Planes are built lazily on first request and are immutable
// afterwards, so a table can be shared by any number of concurrent
// sessions (see SharedTable).
type OverlapTable struct {
	g *Grid
	p TableParams

	mu     sync.Mutex
	planes map[int64]*CapPlane // keyed by radius in micro-degrees
}

// NewOverlapTable creates an empty table for the grid. Most callers want
// SharedTable instead, which reuses tables process-wide.
func NewOverlapTable(g *Grid, p TableParams) *OverlapTable {
	return &OverlapTable{g: g, p: p.withDefaults(), planes: make(map[int64]*CapPlane)}
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
// over the same tiling build each radius plane exactly once.
func SharedTable(g *Grid, p TableParams) *OverlapTable {
	key := tableKey{rows: g.Rows, cols: g.Cols, p: p.withDefaults()}
	if t, ok := sharedTables.Load(key); ok {
		return t.(*OverlapTable)
	}
	t, _ := sharedTables.LoadOrStore(key, NewOverlapTable(g, p))
	return t.(*OverlapTable)
}

// Plane returns the table plane for one cap radius, building it on first
// use. Safe for concurrent use.
func (t *OverlapTable) Plane(radiusDeg float64) *CapPlane {
	key := int64(math.Round(radiusDeg * 1e6))
	t.mu.Lock()
	defer t.mu.Unlock()
	if pl, ok := t.planes[key]; ok {
		return pl
	}
	pl := buildPlane(t.g, t.p, radiusDeg)
	t.planes[key] = pl
	return pl
}

// Planes resolves one plane per RoI radius, in radius order — the
// per-session setup for table-driven location scores.
func (rs RoISet) Planes(t *OverlapTable) []*CapPlane {
	out := make([]*CapPlane, len(rs.RadiiDeg))
	for i, r := range rs.RadiiDeg {
		out[i] = t.Plane(r)
	}
	return out
}

// CapPlane is the precomputed overlap table for one (grid, radius): for
// every quantized center orientation, the exact overlap fraction of every
// tile with the spherical cap at that center. Immutable after build.
type CapPlane struct {
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

func buildPlane(g *Grid, p TableParams, radiusDeg float64) *CapPlane {
	p = p.withDefaults()
	pl := &CapPlane{
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

// Radius returns the cap radius the plane was built for, in degrees.
func (pl *CapPlane) Radius() float64 { return pl.radiusDeg }

// MemoryBytes reports the approximate size of the plane's overlap array,
// for capacity planning (docs/PERFORMANCE.md).
func (pl *CapPlane) MemoryBytes() int { return 8 * len(pl.data) }

// Lookup quantizes a center orientation into the plane's bucket and column
// shift. The returned PlaneLookup answers per-tile overlap queries with a
// single array read; callers evaluating many tiles against one center
// should hoist the Lookup out of the loop.
func (pl *CapPlane) Lookup(center Orientation) PlaneLookup {
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
	return PlaneLookup{
		vals:  pl.data[bucket*n : (bucket+1)*n],
		ids:   pl.nonzero[bucket],
		shift: shift,
		cols:  pl.g.Cols,
	}
}

// Overlap is the table-driven OverlapCap: the overlap fraction of tile id
// with the cap at the quantized center.
func (pl *CapPlane) Overlap(id TileID, center Orientation) float64 {
	return pl.Lookup(center).Overlap(id)
}

// PlaneLookup is a resolved (plane, quantized center) pair. The zero value
// is not meaningful; obtain one from CapPlane.Lookup.
type PlaneLookup struct {
	vals  []float64
	ids   []TileID
	shift int
	cols  int
}

// Overlap returns the overlap fraction of tile id. Allocation-free.
func (l PlaneLookup) Overlap(id TileID) float64 {
	col := int(id) % l.cols
	return l.OverlapAt(int(id)-col, col)
}

// OverlapAt is Overlap for a tile given as its row base (id - id%Cols) and
// column, for callers that put one tile to many lookups and split it once.
func (l PlaneLookup) OverlapAt(rowBase, col int) float64 {
	c := col - l.shift
	if c < 0 {
		c += l.cols
	}
	return l.vals[rowBase+c]
}

// AppendTiles appends the IDs of every tile with non-zero overlap to dst
// and returns it — the table-driven TilesInCap, allocation-free once dst
// has capacity. Tiles are appended in base-frame order, which is
// deterministic for a given center bucket.
func (l PlaneLookup) AppendTiles(dst []TileID) []TileID {
	for _, base := range l.ids {
		c := int(base)%l.cols + l.shift
		if c >= l.cols {
			c -= l.cols
		}
		dst = append(dst, TileID(int(base)-int(base)%l.cols+c))
	}
	return dst
}

// String implements fmt.Stringer for diagnostics.
func (pl *CapPlane) String() string {
	return fmt.Sprintf("geom.CapPlane{r=%.1f° grid=%dx%d buckets=%dx%d %d KiB}",
		pl.radiusDeg, pl.g.Rows, pl.g.Cols, pl.yawSteps, pl.pitchSteps, pl.MemoryBytes()/1024)
}
