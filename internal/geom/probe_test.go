package geom

// Probes over the cap walk that only the tests read: the scheduler, the
// renderer and the table build go through OverlapCapQ, LocationScoreQ and
// AppendCapWeights.

// OverlapCap is OverlapCapQ against a cap of the given angular radius
// (degrees) centered at center.
func (g *Grid) OverlapCap(id TileID, center Orientation, radiusDeg float64) float64 {
	return g.OverlapCapQ(id, NewCapQuery(center, radiusDeg))
}

// Coverage returns the fraction of the viewport cap's solid angle covered by
// the given tile set when looking at center. It is used to compute the
// blank-area metric: blank fraction = 1 - Coverage(available tiles).
func (v Viewport) Coverage(g *Grid, center Orientation, have func(TileID) bool) float64 {
	total := 0.0
	covered := 0.0
	q := NewCapQuery(center, v.RadiusDeg)
	g.walkCap(q, func(id TileID) {
		if inside := g.capWeight(id, q); inside > 0 {
			total += inside
			if have(id) {
				covered += inside
			}
		}
	})
	if total == 0 {
		return 1
	}
	return covered / total
}

// CapWeights returns, for every tile with non-zero overlap with the cap at
// center, the tile's solid-angle weight inside the cap. The weights are the
// per-tile contributions used to aggregate viewport quality area-true.
func (g *Grid) CapWeights(center Orientation, radiusDeg float64) (ids []TileID, weights []float64) {
	return g.AppendCapWeights(nil, nil, center, radiusDeg)
}

// LocationScore computes l_if = Σ_r l_irf for one tile and one predicted view
// center: the sum over RoIs of the tile's fractional overlap with each RoI.
// With C concentric RoIs the score is in [0, C], higher for tiles nearer the
// predicted viewport center.
func (rs RoISet) LocationScore(g *Grid, id TileID, center Orientation) float64 {
	s := 0.0
	for _, r := range rs.RadiiDeg {
		s += g.OverlapCap(id, center, r)
	}
	return s
}

// Queries precomputes the per-RoI cap tests for one view center, for use
// with LocationScoreQ.
func (rs RoISet) Queries(center Orientation) []CapQuery {
	out := make([]CapQuery, len(rs.RadiiDeg))
	for i, r := range rs.RadiiDeg {
		out[i] = NewCapQuery(center, r)
	}
	return out
}
