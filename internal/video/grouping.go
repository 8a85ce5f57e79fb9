package video

import (
	"sort"

	"dragonfly/internal/geom"
)

// Pano's variable tiling (paper §4.3 and Appendix "Compression benefits of
// using Pano's variable tiling"): each chunk is split into ~30 variably
// sized groups of tiles with similar quality sensitivity; all tiles in a
// group are fetched at the same quality, and the grouped (larger) tiles
// compress better than 144 independent fixed tiles, especially at low rates.

// DefaultGroupCount is the number of tile groups Pano forms per chunk.
const DefaultGroupCount = 30

// QualitySensitivity returns the PSNR spread of a tile between the highest
// and lowest encodings: Pano's grouping criterion ("pixels with a similar
// quality sensitivity to changes in encoding parameters").
func QualitySensitivity(m *Manifest, chunk int, tile geom.TileID) float64 {
	return m.TilePSNR(chunk, tile, Highest) - m.TilePSNR(chunk, tile, Lowest)
}

// GroupTiles partitions the chunk's tiles into n groups of similar quality
// sensitivity: tiles are sorted by sensitivity and cut into n contiguous
// runs. Every tile appears in exactly one group; groups are non-empty when
// n <= NumTiles.
func GroupTiles(m *Manifest, chunk, n int) [][]geom.TileID {
	tiles := m.NumTiles()
	if n <= 0 {
		n = DefaultGroupCount
	}
	g := Groups{order: sensitivityOrder(m, chunk, make([]geom.TileID, tiles)), n: min(n, tiles)}
	groups := make([][]geom.TileID, g.n)
	for i := range groups {
		groups[i] = g.Group(i)
	}
	return groups
}

// Groups is one chunk's grouping as GroupTiles cuts it: the chunk's tiles
// in ascending sensitivity order (ties by ID), split into Len contiguous
// runs.
type Groups struct {
	order []geom.TileID
	n     int
}

// Len returns the number of groups.
func (g Groups) Len() int { return g.n }

// Group returns group i's tiles in sensitivity order. The slice shares the
// grouping's memory and must not be written.
func (g Groups) Group(i int) []geom.TileID {
	lo, hi := i*len(g.order)/g.n, (i+1)*len(g.order)/g.n
	return g.order[lo:hi:hi]
}

// TileGroups returns the chunk's grouping into DefaultGroupCount groups,
// the groups GroupTiles(m, chunk, DefaultGroupCount) lists. The manifest
// builds every chunk's at once, on the first call, and holds them: a
// grouping depends on the manifest alone, so every session over it shares
// one.
func (m *Manifest) TileGroups(chunk int) Groups {
	tiles := m.NumTiles()
	m.groupsOnce.Do(func() {
		m.groupOrder = make([]geom.TileID, m.NumChunks*tiles)
		for c := 0; c < m.NumChunks; c++ {
			sensitivityOrder(m, c, m.groupOrder[c*tiles:(c+1)*tiles])
		}
	})
	return Groups{order: m.groupOrder[chunk*tiles : (chunk+1)*tiles], n: min(DefaultGroupCount, tiles)}
}

// sensitivityOrder fills ids, one slot per tile, with the chunk's tiles in
// ascending quality sensitivity, ties by ID, and returns it.
func sensitivityOrder(m *Manifest, chunk int, ids []geom.TileID) []geom.TileID {
	sens := make([]float64, len(ids))
	for i := range ids {
		ids[i] = geom.TileID(i)
		sens[i] = QualitySensitivity(m, chunk, ids[i])
	}
	sort.Slice(ids, func(a, b int) bool {
		sa, sb := sens[ids[a]], sens[ids[b]]
		if sa != sb {
			return sa < sb
		}
		return ids[a] < ids[b]
	})
	return ids
}

// groupCompressionSaving is the fraction of the fixed-tiling overhead that
// merging tiles into a group recovers, per quality. Intra-frame prediction
// across tile boundaries matters at low rates and is negligible at high
// rates (paper Fig 20: the F/V overhead ratio shrinks at high quality).
var groupCompressionSaving = [NumQualities]float64{0.85, 0.80, 0.70, 0.55, 0.40}

// groupSize returns the encoded size of a tile group at quality q: the sum
// of the member tiles' payloads minus the recovered tiling overhead, plus a
// single header instead of one per tile.
func groupSize(m *Manifest, chunk int, group []geom.TileID, q Quality) int64 {
	var payload int64
	for _, t := range group {
		payload += m.TileSize(chunk, t, q) - perTileHeaderBytes
	}
	// Remove the recovered share of the tiling overhead baked into payloads.
	oh := tilingOverhead[q]
	recovered := float64(payload) * (oh / (1 + oh)) * groupCompressionSaving[q] *
		groupScale(len(group))
	return payload - int64(recovered) + perTileHeaderBytes
}

// groupScale discounts the recovered overhead for small groups: a singleton
// group saves nothing, large groups approach the full saving.
func groupScale(n int) float64 {
	if n <= 1 {
		return 0
	}
	s := float64(n-1) / float64(n)
	return s
}

// GroupedChunkSize returns the total size of the chunk at quality q when
// encoded as grouped variable tiles (Pano's "V" in Fig 20's F/V ratio).
func GroupedChunkSize(m *Manifest, chunk int, groups [][]geom.TileID, q Quality) int64 {
	var total int64
	for _, g := range groups {
		total += groupSize(m, chunk, g, q)
	}
	return total
}
