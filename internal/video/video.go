// Package video models tiled 360° video content: temporal chunks, spatial
// tiles, per-tile encodings at multiple quality levels, and the quality
// metrics (PSNR, PSPNR) the schedulers consume.
//
// The original Dragonfly prototype derives this information from real videos
// with ffmpeg and VQMT. Here a seeded synthetic encoder (see gen.go)
// produces manifests whose joint size/quality statistics are calibrated to
// the paper's Table 3 and Figure 24; the streaming algorithms only ever see
// the manifest, so their behavior is preserved (DESIGN.md §3).
package video

import (
	"fmt"
	"sync"

	"dragonfly/internal/geom"
	"dragonfly/internal/stats"
)

// Quality indexes an encoding level, ascending: 0 is the lowest quality
// (QP 42, used as the masking stream by two-stream schemes) and
// NumQualities-1 is the highest (QP 22).
type Quality int

// NumQualities is the number of encoded quality levels per tile.
const NumQualities = 5

// qps maps Quality to the H.264/H.265 quantization parameter of that level,
// matching the paper's encodings (§4.2).
var qps = [NumQualities]int{42, 37, 32, 27, 22}

// Lowest and Highest name the extreme quality levels.
const (
	Lowest  Quality = 0
	Highest Quality = NumQualities - 1
)

// Valid reports whether q is a real encoding level.
func (q Quality) Valid() bool { return q >= 0 && q < NumQualities }

// QP returns the quantization parameter of the level.
func (q Quality) QP() int {
	if !q.Valid() {
		panic(fmt.Sprintf("video: invalid quality %d", q))
	}
	return qps[q]
}

// Manifest describes one video: its tiling, chunking, and the size and
// quality of every (chunk, tile, quality) variant. It corresponds to the
// extended DASH manifest of paper §3.3 ("tile sizes, the quality metric for
// that tile ... for all quality levels, and the yaw and pitch displacements
// on a per-chunk basis").
type Manifest struct {
	VideoID     string
	Rows, Cols  int
	FPS         int // frames per second
	ChunkFrames int // frames per chunk (1-second chunks => ChunkFrames == FPS)
	NumChunks   int

	// Flattened [chunk][tile][quality] arrays; see index().
	sizes []int64   // bytes of each encoded tile variant
	psnr  []float64 // PSNR (dB) of each variant vs. the source
	pspnr []float64 // PSPNR (dB), JND-thresholded PSNR

	// blackPSNR[chunk*tiles+tile] is the PSNR of rendering the tile black
	// (the penalty for a skipped tile with no masking version).
	blackPSNR []float64

	// full360[chunk*NumQualities+q] is the size in bytes of the whole chunk
	// encoded untiled at quality q (the full-360° masking stream variant;
	// smaller than the sum of tiles because tiling loses intra prediction).
	full360 []int64

	// MaskDisplacement[chunk] is the maximum angular displacement (degrees)
	// observed across historical user traces during that chunk; the tiled
	// masking strategy fetches this far around the predicted viewport
	// (paper §3.2, §4.5).
	MaskDisplacement []float64

	// checksums[chunk*tiles*Q + tile*Q + q] is the CRC32-C of each encoded
	// tile payload, and full360Checksums[chunk*Q + q] of each untiled
	// chunk. Empty in manifests serialized before wire v3: clients then
	// skip payload verification (see HasChecksums).
	checksums        []uint32
	full360Checksums []uint32

	// Grid() cache: a manifest's tiling never changes, and the grid
	// precomputes the per-tile sample lattice, so every session sharing a
	// manifest should share one grid.
	gridOnce sync.Once
	grid     *geom.Grid

	// TileGroups cache: every chunk's tiles in sensitivity order, chunk
	// after chunk, built on the first call (Pano's), so set-up never pays
	// for it and it is freed with the manifest.
	groupsOnce sync.Once
	groupOrder []geom.TileID
}

// newManifest allocates an empty manifest with the given dimensions. All
// sizes and metrics start at zero; the generator fills them in.
func newManifest(id string, rows, cols, fps, chunkFrames, numChunks int) *Manifest {
	if rows <= 0 || cols <= 0 || fps <= 0 || chunkFrames <= 0 || numChunks <= 0 {
		panic("video: invalid manifest dimensions")
	}
	tiles := rows * cols
	return &Manifest{
		VideoID:          id,
		Rows:             rows,
		Cols:             cols,
		FPS:              fps,
		ChunkFrames:      chunkFrames,
		NumChunks:        numChunks,
		sizes:            make([]int64, numChunks*tiles*NumQualities),
		psnr:             make([]float64, numChunks*tiles*NumQualities),
		pspnr:            make([]float64, numChunks*tiles*NumQualities),
		blackPSNR:        make([]float64, numChunks*tiles),
		full360:          make([]int64, numChunks*NumQualities),
		MaskDisplacement: make([]float64, numChunks),
	}
}

// NumTiles returns tiles per chunk.
func (m *Manifest) NumTiles() int { return m.Rows * m.Cols }

// NumFrames returns the total frame count of the video.
func (m *Manifest) NumFrames() int { return m.NumChunks * m.ChunkFrames }

// Grid returns the tile grid matching this manifest. The grid is built on
// first call and cached: it is immutable, and sharing one instance lets
// every session over this manifest also share the process-wide overlap
// tables keyed off it.
func (m *Manifest) Grid() *geom.Grid {
	m.gridOnce.Do(func() { m.grid = geom.NewGrid(m.Rows, m.Cols) })
	return m.grid
}

// ChunkOfFrame returns the chunk containing the given frame index.
func (m *Manifest) ChunkOfFrame(frame int) int {
	if frame < 0 {
		return 0
	}
	c := frame / m.ChunkFrames
	if c >= m.NumChunks {
		c = m.NumChunks - 1
	}
	return c
}

// FirstFrame returns the first frame index of a chunk.
func (m *Manifest) FirstFrame(chunk int) int { return chunk * m.ChunkFrames }

func (m *Manifest) index(chunk int, tile geom.TileID, q Quality) int {
	if chunk < 0 || chunk >= m.NumChunks || int(tile) < 0 || int(tile) >= m.NumTiles() || !q.Valid() {
		panic(fmt.Sprintf("video: out of range (chunk=%d tile=%d q=%d) for %s", chunk, tile, q, m.VideoID))
	}
	return (chunk*m.NumTiles()+int(tile))*NumQualities + int(q)
}

// TileSize returns the encoded size in bytes of the tile variant.
func (m *Manifest) TileSize(chunk int, tile geom.TileID, q Quality) int64 {
	return m.sizes[m.index(chunk, tile, q)]
}

// SetTileSize sets the encoded size in bytes of the tile variant.
func (m *Manifest) SetTileSize(chunk int, tile geom.TileID, q Quality, bytes int64) {
	m.sizes[m.index(chunk, tile, q)] = bytes
}

// TilePSNR returns the PSNR in dB of the tile variant.
func (m *Manifest) TilePSNR(chunk int, tile geom.TileID, q Quality) float64 {
	return m.psnr[m.index(chunk, tile, q)]
}

// setTilePSNR sets the PSNR in dB of the tile variant.
func (m *Manifest) setTilePSNR(chunk int, tile geom.TileID, q Quality, db float64) {
	m.psnr[m.index(chunk, tile, q)] = db
}

// TilePSPNR returns the PSPNR in dB of the tile variant.
func (m *Manifest) TilePSPNR(chunk int, tile geom.TileID, q Quality) float64 {
	return m.pspnr[m.index(chunk, tile, q)]
}

// setTilePSPNR sets the PSPNR in dB of the tile variant.
func (m *Manifest) setTilePSPNR(chunk int, tile geom.TileID, q Quality, db float64) {
	m.pspnr[m.index(chunk, tile, q)] = db
}

// BlackPSNR returns the PSNR of rendering the tile as black pixels (used
// when a viewport tile is skipped and no masking version exists; §4.4
// "for skipped masking tiles, we calculate and use the PSNR of black tile").
func (m *Manifest) BlackPSNR(chunk int, tile geom.TileID) float64 {
	return m.blackPSNR[chunk*m.NumTiles()+int(tile)]
}

// setBlackPSNR sets the black-render PSNR of a tile.
func (m *Manifest) setBlackPSNR(chunk int, tile geom.TileID, db float64) {
	m.blackPSNR[chunk*m.NumTiles()+int(tile)] = db
}

// Full360Size returns the size in bytes of the whole chunk encoded untiled
// at quality q.
func (m *Manifest) Full360Size(chunk int, q Quality) int64 {
	if chunk < 0 || chunk >= m.NumChunks || !q.Valid() {
		panic("video: full360 index out of range")
	}
	return m.full360[chunk*NumQualities+int(q)]
}

// SetFull360Size sets the untiled chunk size at quality q.
func (m *Manifest) SetFull360Size(chunk int, q Quality, bytes int64) {
	m.full360[chunk*NumQualities+int(q)] = bytes
}

// ChunkTiledSize returns the total size of all tiles of a chunk at one
// quality — the cost of fetching the full 360° through the tiled encoding.
func (m *Manifest) ChunkTiledSize(chunk int, q Quality) int64 {
	var total int64
	for t := 0; t < m.NumTiles(); t++ {
		total += m.TileSize(chunk, geom.TileID(t), q)
	}
	return total
}

// MedianFull360Mbps returns the median across chunks of the full-360°
// bitrate at quality q, in Mbps (chunks are ChunkFrames/FPS seconds long).
// This is the statistic reported in the paper's Table 3 and Figure 24.
func (m *Manifest) MedianFull360Mbps(q Quality) float64 {
	rates := make([]float64, m.NumChunks)
	secs := float64(m.ChunkFrames) / float64(m.FPS)
	for c := 0; c < m.NumChunks; c++ {
		rates[c] = float64(m.Full360Size(c, q)) * 8 / secs / 1e6
	}
	return stats.Median(rates)
}
