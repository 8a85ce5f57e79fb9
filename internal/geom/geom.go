// Package geom implements the spherical geometry used by tile-based 360°
// video streaming: orientations on the view sphere, equirectangular tile
// grids, viewport membership, and the fractional overlap between tiles and
// concentric regions of interest (RoIs) that drives Dragonfly's location
// score (paper §3.1).
//
// Conventions: yaw is in degrees in [-180, 180) with 0 facing forward and
// positive to the user's left; pitch is in degrees in [-90, 90] with +90 at
// the zenith. Angular distances are great-circle distances in degrees. A
// cap of radius 180° or more is the whole sphere and one of 0° or less is
// empty (NewCapQuery).
//
// Overlap is estimated on a fixed 4×4 sample lattice per tile. Every cap
// query (OverlapCapQ, TilesInCap, AppendCapWeights, the table build)
// first tests the cap against a bounding cap stored per tile and runs the
// 16-sample loop only for tiles the cap's edge may cross — about an eighth
// of tile × cap pairs on the paper's 12×12 grid — returning for the rest what
// the loop would have summed, bit for bit (capWeight). The walks over the
// grid are one walk (walkCap) that never classifies a tile in a row or a
// column the cap cannot reach.
package geom

import (
	"fmt"
	"math"
)

// Orientation is a direction on the view sphere, in degrees.
type Orientation struct {
	Yaw   float64 // [-180, 180)
	Pitch float64 // [-90, 90]
}

// NormalizeYaw maps an arbitrary yaw angle into [-180, 180).
func NormalizeYaw(yaw float64) float64 {
	y := math.Mod(yaw+180, 360)
	if y < 0 {
		y += 360
	}
	return y - 180
}

// ClampPitch limits pitch to the valid [-90, 90] range.
func ClampPitch(pitch float64) float64 {
	if pitch > 90 {
		return 90
	}
	if pitch < -90 {
		return -90
	}
	return pitch
}

// Normalize returns the orientation with yaw wrapped and pitch clamped.
func (o Orientation) Normalize() Orientation {
	return Orientation{Yaw: NormalizeYaw(o.Yaw), Pitch: ClampPitch(o.Pitch)}
}

// YawDelta returns the signed shortest angular difference b-a between two yaw
// angles, in (-180, 180].
func YawDelta(a, b float64) float64 {
	d := math.Mod(b-a, 360)
	if d > 180 {
		d -= 360
	}
	if d <= -180 {
		d += 360
	}
	return d
}

// Vec3 is a unit vector on the view sphere.
type Vec3 struct{ X, Y, Z float64 }

// Unit converts an orientation to a unit vector. Yaw rotates about the
// vertical axis, pitch raises toward the zenith.
func (o Orientation) Unit() Vec3 {
	yaw := o.Yaw * math.Pi / 180
	pitch := o.Pitch * math.Pi / 180
	cp := math.Cos(pitch)
	return Vec3{
		X: cp * math.Cos(yaw),
		Y: cp * math.Sin(yaw),
		Z: math.Sin(pitch),
	}
}

// dot returns the dot product of two vectors.
func (v Vec3) dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// AngularDistance returns the great-circle distance between two orientations
// in degrees, in [0, 180].
func AngularDistance(a, b Orientation) float64 {
	return angleDeg(a.Unit().dot(b.Unit()))
}

// angleDeg is the angle in degrees whose cosine is the dot product d of two
// unit vectors, clamped against rounding.
func angleDeg(d float64) float64 {
	if d > 1 {
		d = 1
	} else if d < -1 {
		d = -1
	}
	return math.Acos(d) * 180 / math.Pi
}

// TileID identifies a tile within a Grid as row*Cols + col.
type TileID int

// Grid is an equirectangular tiling of the sphere into Rows×Cols equal
// rectangles in (yaw, pitch) space. The paper's evaluation uses 12×12
// (Appendix: "Why 12x12 tiling?").
type Grid struct {
	Rows int
	Cols int

	// sampleVecs caches, per tile, a fixed lattice of unit vectors used to
	// estimate fractional overlap with spherical caps. Populated by NewGrid.
	sampleVecs [][]Vec3
	// sampleWeights holds the cos(pitch) solid-angle weight of each sample
	// point so overlap fractions are area-true on the sphere.
	sampleWeights [][]float64
	// tileWeight is the total solid-angle weight of each tile.
	tileWeight []float64
	centers    []Orientation
	// bounds holds, per tile, the spherical cap that encloses its sample
	// lattice; capWeight classifies a tile against a query cap with it.
	bounds []tileBound
	// rowPitch holds, per row, the lowest and highest pitch of its samples
	// in radians, and dyawRad the column width: walkCap's reach tests.
	rowPitch [][2]float64
	dyawRad  float64
}

// tileBound is a cap around a tile's center that contains every sample of
// the tile: the center's unit vector and the cosine and sine of the cap's
// angular radius (the largest center-to-sample angle plus boundSlack).
type tileBound struct {
	center     Vec3
	cosR, sinR float64
}

// boundSlack widens every tile's bounding cap, in radians. It is eight
// orders of magnitude above the rounding error of the dot products and
// products of cosines involved, so a tile classified as wholly inside or
// wholly outside a query cap has every one of its samples on that side in
// the sample loop's own floating-point comparison.
const boundSlack = 1e-6

// samplesPerAxis controls the overlap-estimation lattice resolution. A 4×4
// lattice per tile keeps location-score computation cheap (16 dot products
// per tile per RoI) while resolving boundary tiles to 1/16 granularity.
const samplesPerAxis = 4

// NewGrid creates a tile grid and precomputes per-tile sample lattices.
// It panics if rows or cols is not positive (a programming error).
func NewGrid(rows, cols int) *Grid {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("geom: invalid grid %dx%d", rows, cols))
	}
	g := &Grid{Rows: rows, Cols: cols}
	n := rows * cols
	g.sampleVecs = make([][]Vec3, n)
	g.sampleWeights = make([][]float64, n)
	g.tileWeight = make([]float64, n)
	g.centers = make([]Orientation, n)
	g.bounds = make([]tileBound, n)
	g.rowPitch = make([][2]float64, rows)
	dyaw := 360.0 / float64(cols)
	dpitch := 180.0 / float64(rows)
	g.dyawRad = dyaw * math.Pi / 180
	for r := 0; r < rows; r++ {
		g.rowPitch[r] = [2]float64{math.Inf(1), math.Inf(-1)}
		for c := 0; c < cols; c++ {
			id := r*cols + c
			yaw0 := -180 + float64(c)*dyaw
			pitch0 := 90 - float64(r+1)*dpitch
			g.centers[id] = Orientation{
				Yaw:   NormalizeYaw(yaw0 + dyaw/2),
				Pitch: pitch0 + dpitch/2,
			}
			vecs := make([]Vec3, 0, samplesPerAxis*samplesPerAxis)
			weights := make([]float64, 0, samplesPerAxis*samplesPerAxis)
			total := 0.0
			for sy := 0; sy < samplesPerAxis; sy++ {
				for sp := 0; sp < samplesPerAxis; sp++ {
					// Sample at cell midpoints of a samplesPerAxis lattice.
					o := Orientation{
						Yaw:   NormalizeYaw(yaw0 + (float64(sy)+0.5)*dyaw/samplesPerAxis),
						Pitch: pitch0 + (float64(sp)+0.5)*dpitch/samplesPerAxis,
					}
					p := o.Pitch * math.Pi / 180
					g.rowPitch[r][0] = math.Min(g.rowPitch[r][0], p)
					g.rowPitch[r][1] = math.Max(g.rowPitch[r][1], p)
					w := math.Cos(p)
					vecs = append(vecs, o.Unit())
					weights = append(weights, w)
					total += w
				}
			}
			g.sampleVecs[id] = vecs
			g.sampleWeights[id] = weights
			g.tileWeight[id] = total
			cv := g.centers[id].Unit()
			minDot := 1.0
			for _, v := range vecs {
				if d := v.dot(cv); d < minDot {
					minDot = d
				}
			}
			if minDot < -1 {
				minDot = -1
			}
			rho := math.Acos(minDot) + boundSlack
			g.bounds[id] = tileBound{center: cv, cosR: math.Cos(rho), sinR: math.Sin(rho)}
		}
	}
	return g
}

// NumTiles returns the total number of tiles in the grid.
func (g *Grid) NumTiles() int { return g.Rows * g.Cols }

// TileAt returns the tile containing the given orientation.
func (g *Grid) TileAt(o Orientation) TileID {
	o = o.Normalize()
	c := int((o.Yaw + 180) / 360 * float64(g.Cols))
	if c >= g.Cols {
		c = g.Cols - 1
	}
	if c < 0 {
		c = 0
	}
	r := int((90 - o.Pitch) / 180 * float64(g.Rows))
	if r >= g.Rows {
		r = g.Rows - 1
	}
	if r < 0 {
		r = 0
	}
	return TileID(r*g.Cols + c)
}

// Center returns the orientation at the center of a tile.
func (g *Grid) Center(id TileID) Orientation { return g.centers[id] }

// CenterDistance is AngularDistance(g.Center(id), o) for u = o.Unit(), bit
// for bit, from the unit vector of the tile's center NewGrid cached: callers
// that rank many tiles around one orientation convert it once.
func (g *Grid) CenterDistance(id TileID, u Vec3) float64 {
	return angleDeg(g.bounds[id].center.dot(u))
}

// RowCol splits a TileID into its row and column.
func (g *Grid) RowCol(id TileID) (row, col int) {
	return int(id) / g.Cols, int(id) % g.Cols
}

// SolidAngleWeight returns the relative solid angle of the tile (the sum of
// cos(pitch) over its sample lattice). Tiles near the poles weigh less: an
// equirectangular tile covers less of the sphere there.
func (g *Grid) SolidAngleWeight(id TileID) float64 { return g.tileWeight[id] }

// CapQuery is a precomputed spherical-cap membership test: callers that
// evaluate many tiles against the same cap avoid recomputing the center's
// unit vector and the radius cosine per tile.
type CapQuery struct {
	v Vec3
	// A sample s is in the cap when s·v >= cosR. cosR is 2 for the empty
	// cap and -2 for the whole sphere, so the test needs no special case.
	cosR, sinR float64
}

// NewCapQuery precomputes a cap test for OverlapCapQ. A radius of 180° or
// more is the whole sphere and a radius of 0° or less is empty — here, so
// that every cap walk (OverlapCapQ, TilesInCap, AppendCapWeights, the table
// build) agrees on both.
func NewCapQuery(center Orientation, radiusDeg float64) CapQuery {
	switch {
	case radiusDeg <= 0:
		return CapQuery{cosR: 2}
	case radiusDeg >= 180:
		return CapQuery{cosR: -2}
	}
	r := radiusDeg * math.Pi / 180
	return CapQuery{v: center.Unit(), cosR: math.Cos(r), sinR: math.Sin(r)}
}

// capWeight returns the solid-angle weight of tile id's samples inside the
// cap, walking the samples only when capSide cannot settle the tile. The
// wholly-inside answer is tileWeight, which NewGrid accumulated over the
// same samples in the same order as sampleWeight does, so all three cases
// return sampleWeight's bits.
func (g *Grid) capWeight(id TileID, q CapQuery) float64 {
	switch g.capSide(id, q) {
	case sideOutside:
		return 0
	case sideInside:
		return g.tileWeight[id]
	}
	return g.sampleWeight(id, q)
}

// Where a tile's samples lie relative to a query cap.
const (
	sideOutside = -1 // every sample outside
	sideCrossed = 0  // undecided: the cap's edge may cross the tile
	sideInside  = 1  // every sample inside
)

// capSide classifies tile id against the cap from one dot product: with
// the tile's bounding cap of radius ρ centered at angle θ from the query's
// center, θ > R+ρ puts every sample outside and θ <= R-ρ every sample
// inside. Cosines decrease over [0°, 180°], so R+ρ < 180° reads
// cos ρ > -cos R and ρ <= R reads cos R <= cos ρ.
func (g *Grid) capSide(id TileID, q CapQuery) int {
	switch { // the empty cap and the whole sphere have no R to compare
	case q.cosR > 1:
		return sideOutside
	case q.cosR < -1:
		return sideInside
	}
	b := &g.bounds[id]
	d := b.center.dot(q.v)
	cc, ss := q.cosR*b.cosR, q.sinR*b.sinR
	if b.cosR > -q.cosR && d < cc-ss { // θ > R+ρ
		return sideOutside
	}
	if q.cosR <= b.cosR && d >= cc+ss { // θ <= R-ρ
		return sideInside
	}
	return sideCrossed
}

// sampleWeight sums the weights of tile id's samples inside the cap.
func (g *Grid) sampleWeight(id TileID, q CapQuery) float64 {
	weights := g.sampleWeights[id]
	in := 0.0
	for k, v := range g.sampleVecs[id] {
		if v.dot(q.v) >= q.cosR {
			in += weights[k]
		}
	}
	return in
}

// capHas reports whether any of tile id's samples lies inside the cap,
// stopping at the first: capWeight > 0, as every sample weighs more than
// zero.
func (g *Grid) capHas(id TileID, q CapQuery) bool {
	switch g.capSide(id, q) {
	case sideOutside:
		return false
	case sideInside:
		return true
	}
	for _, v := range g.sampleVecs[id] {
		if v.dot(q.v) >= q.cosR {
			return true
		}
	}
	return false
}

// OverlapCapQ estimates the fraction of tile id's spherical area that lies
// within the spherical cap q. The result is in [0, 1]. This is the l_irf
// term of the paper's location score: 1 if the tile region is completely
// inside the RoI, 0 if disjoint, fractional at the boundary.
func (g *Grid) OverlapCapQ(id TileID, q CapQuery) float64 {
	return g.capWeight(id, q) / g.tileWeight[id]
}

// AppendTilesInCap appends to dst the IDs of all tiles with non-zero
// overlap with the spherical cap centered at center with the given angular
// radius, so per-decision and per-frame loops can reuse one buffer instead
// of allocating. The cap test is hoisted once for the whole grid walk.
func (g *Grid) AppendTilesInCap(dst []TileID, center Orientation, radiusDeg float64) []TileID {
	q := NewCapQuery(center, radiusDeg)
	g.walkCap(q, func(id TileID) {
		if g.capHas(id, q) {
			dst = append(dst, id)
		}
	})
	return dst
}

// AppendTilesInRing appends to in the tiles of the cap of radius r at center
// and to ring the tiles of the cap of radius outer ≥ r that are not in it:
// the two AppendTilesInCap lists and their difference, in the same order,
// from one walk of the outer cap. Both caps test each sample against the
// same center vector, so every sample inside the inner cap is inside the
// outer one.
func (g *Grid) AppendTilesInRing(in, ring []TileID, center Orientation, r, outer float64) ([]TileID, []TileID) {
	qi, qo := NewCapQuery(center, r), NewCapQuery(center, outer)
	g.walkCap(qo, func(id TileID) {
		switch {
		case g.capHas(id, qi):
			in = append(in, id)
		case g.capHas(id, qo):
			ring = append(ring, id)
		}
	})
	return in, ring
}

// walkCap is the one walk over the grid under every cap query: it calls
// visit, in ascending tile order, for the tiles of every row and column a
// sample inside q can lie in (capReach), and visit classifies them. The
// empty cap visits nothing.
func (g *Grid) walkCap(q CapQuery, visit func(id TileID)) {
	if q.cosR > 1 {
		return
	}
	lo, hi, spans := g.capReach(q)
	for r := 0; r < g.Rows; r++ {
		if g.rowPitch[r][1] < lo || g.rowPitch[r][0] > hi {
			continue
		}
		for _, span := range spans {
			for id := r*g.Cols + span[0]; id < r*g.Cols+span[1]; id++ {
				visit(TileID(id))
			}
		}
	}
}

// capReach bounds where a sample inside cap q can lie: at a pitch in
// [lo, hi] (radians) and in the columns of two ascending spans [from, to).
// Both bounds come from q.v, the vector the sample loop tests against, so an
// Orientation with |pitch| > 90 is walked where its vector points.
//
// A sample the loop counts inside satisfies s·v >= cos R in floating point,
// which puts it less than 1e-7 rad beyond R from v (the worst case is
// R → 0); the reach R + boundSlack covers that. Any point within angle d of
// v lies within d of v's pitch, so rows whose samples all lie farther than
// the reach in pitch are skipped. Where the reach holds no pole, every
// point of the cap is within asin(sin reach / cos pitch) of v's yaw (the
// cap's tangent meridians; the width grows at least as fast as the reach),
// widened by boundSlack again, and the columns wholly outside that yaw
// range are skipped too. NaN leaves both bounds open: the classifier then
// decides every tile.
func (g *Grid) capReach(q CapQuery) (lo, hi float64, spans [2][2]int) {
	spans[0] = [2]int{0, g.Cols}
	if q.cosR < -1 { // the whole sphere
		return math.Inf(-1), math.Inf(1), spans
	}
	v := q.v
	reach := math.Atan2(q.sinR, q.cosR) + boundSlack
	eq := math.Hypot(v.X, v.Y) // cos of v's pitch
	pitch := math.Atan2(v.Z, eq)
	lo, hi = pitch-reach, pitch+reach
	if !(eq > 0 && hi < math.Pi/2-boundSlack && lo > -math.Pi/2+boundSlack) {
		return lo, hi, spans // the reach holds a pole: every yaw
	}
	half := math.Asin(math.Sin(reach)/eq) + boundSlack
	yaw := math.Atan2(v.Y, v.X)
	c0 := int(math.Floor((yaw - half + math.Pi) / g.dyawRad))
	c1 := int(math.Floor((yaw+half+math.Pi)/g.dyawRad)) + 1 // exclusive
	switch {
	case c1-c0 >= g.Cols: // every column
	case c0 < 0: // wraps below column 0
		spans = [2][2]int{{0, c1}, {c0 + g.Cols, g.Cols}}
	case c1 > g.Cols: // wraps past the last column
		spans = [2][2]int{{0, c1 - g.Cols}, {c0, g.Cols}}
	default:
		spans[0] = [2]int{c0, c1}
	}
	return lo, hi, spans
}

// Viewport describes the user-visible region as a spherical cap. Tile-based
// 360° systems commonly approximate the HMD frustum with a cap whose radius
// covers the field-of-view diagonal; the Oculus Quest 2's ~100°×90° FOV
// corresponds to a cap radius of about 50°.
type Viewport struct {
	// RadiusDeg is the angular radius of the visible cap, in degrees.
	RadiusDeg float64
}

// DefaultViewport is the cap used throughout the evaluation.
var DefaultViewport = Viewport{RadiusDeg: 50}

// Tiles returns the tiles visible from the given orientation.
func (v Viewport) Tiles(g *Grid, center Orientation) []TileID {
	return g.AppendTilesInCap(make([]TileID, 0, 32), center, v.RadiusDeg)
}

// AppendCapWeights appends, for every tile with non-zero overlap with the
// cap at center, the tile and its solid-angle weight inside the cap: the
// per-tile contributions that aggregate viewport quality area-true. The
// per-frame render accounting reuses its buffers across frames.
func (g *Grid) AppendCapWeights(ids []TileID, weights []float64, center Orientation, radiusDeg float64) ([]TileID, []float64) {
	q := NewCapQuery(center, radiusDeg)
	g.walkCap(q, func(id TileID) {
		if inside := g.capWeight(id, q); inside > 0 {
			ids = append(ids, id)
			weights = append(weights, inside)
		}
	})
	return ids, weights
}

// RoISet defines Dragonfly's concentric regions of interest. Radii must be
// strictly increasing; the innermost RoI captures the viewport center, the
// middle one the viewport itself, and the outermost a guard band just outside
// the viewport (paper §3.1).
type RoISet struct {
	RadiiDeg []float64
}

// DefaultRoIs matches the paper's description for a ~50° viewport cap:
// inner region at half the viewport radius, the viewport, and a 15° guard
// band outside it.
var DefaultRoIs = RoISet{RadiiDeg: []float64{25, 50, 65}}

// LocationScoreQ computes l_if = Σ_r l_irf for one tile against one
// predicted view center's per-RoI cap queries: the sum over RoIs of the
// tile's fractional overlap with each RoI. With C concentric RoIs the score
// is in [0, C], higher for tiles nearer the predicted viewport center.
func (rs RoISet) LocationScoreQ(g *Grid, id TileID, queries []CapQuery) float64 {
	s := 0.0
	for _, q := range queries {
		s += g.OverlapCapQ(id, q)
	}
	return s
}

// MaxRadius returns the radius of the outermost RoI.
func (rs RoISet) MaxRadius() float64 {
	if len(rs.RadiiDeg) == 0 {
		return 0
	}
	return rs.RadiiDeg[len(rs.RadiiDeg)-1]
}

// Neighbors4 returns the tile's 4-connected neighbors on the
// equirectangular grid: columns wrap around in yaw; rows clamp at the
// poles (a polar tile has 3 neighbors).
func (g *Grid) Neighbors4(id TileID) []TileID {
	r, c := g.RowCol(id)
	out := make([]TileID, 0, 4)
	left := (c - 1 + g.Cols) % g.Cols
	right := (c + 1) % g.Cols
	out = append(out, TileID(r*g.Cols+left), TileID(r*g.Cols+right))
	if r > 0 {
		out = append(out, TileID((r-1)*g.Cols+c))
	}
	if r < g.Rows-1 {
		out = append(out, TileID((r+1)*g.Cols+c))
	}
	return out
}
