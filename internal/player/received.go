package player

import (
	"math/bits"
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/video"
)

// notReceived marks a variant that never arrived.
const notReceived = time.Duration(-1)

// Received tracks which tile variants the client holds and when each
// arrived. Render-time availability checks use the arrival instants; the
// schedulers use the "has it at all" views.
type Received struct {
	m *video.Manifest

	primaryAt  []time.Duration // [(chunk*tiles+tile)*Q + q]
	maskTileAt []time.Duration // [chunk*tiles + tile]
	maskFullAt []time.Duration // [chunk]
}

// NewReceived creates an empty received-state for a manifest.
func NewReceived(m *video.Manifest) *Received {
	tiles := m.NumTiles()
	r := &Received{
		m:          m,
		primaryAt:  make([]time.Duration, m.NumChunks*tiles*video.NumQualities),
		maskTileAt: make([]time.Duration, m.NumChunks*tiles),
		maskFullAt: make([]time.Duration, m.NumChunks),
	}
	for i := range r.primaryAt {
		r.primaryAt[i] = notReceived
	}
	for i := range r.maskTileAt {
		r.maskTileAt[i] = notReceived
	}
	for i := range r.maskFullAt {
		r.maskFullAt[i] = notReceived
	}
	return r
}

func (r *Received) pIdx(chunk int, tile geom.TileID, q video.Quality) int {
	return (chunk*r.m.NumTiles()+int(tile))*video.NumQualities + int(q)
}

// Record notes the delivery of an item at the given instant.
func (r *Received) Record(it RequestItem, at time.Duration) {
	switch {
	case it.Stream == Masking && it.Full360:
		if r.maskFullAt[it.Chunk] == notReceived {
			r.maskFullAt[it.Chunk] = at
		}
	case it.Stream == Masking:
		i := it.Chunk*r.m.NumTiles() + int(it.Tile)
		if r.maskTileAt[i] == notReceived {
			r.maskTileAt[i] = at
		}
	default:
		i := r.pIdx(it.Chunk, it.Tile, it.Quality)
		if r.primaryAt[i] == notReceived {
			r.primaryAt[i] = at
		}
	}
}

// BestPrimaryBy returns the highest primary quality of the tile that had
// arrived by instant t, and whether any arrived.
func (r *Received) BestPrimaryBy(chunk int, tile geom.TileID, t time.Duration) (video.Quality, bool) {
	for q := video.Quality(video.NumQualities - 1); q >= 0; q-- {
		at := r.primaryAt[r.pIdx(chunk, tile, q)]
		if at != notReceived && at <= t {
			return q, true
		}
	}
	return 0, false
}

// HasPrimary reports whether the exact primary variant has arrived (at any
// time so far).
func (r *Received) HasPrimary(chunk int, tile geom.TileID, q video.Quality) bool {
	return r.primaryAt[r.pIdx(chunk, tile, q)] != notReceived
}

// BestPrimary returns the highest primary quality held for the tile.
func (r *Received) BestPrimary(chunk int, tile geom.TileID) (video.Quality, bool) {
	return r.BestPrimaryBy(chunk, tile, 1<<62)
}

// HasMaskingBy reports whether a masking version (tiled or full-360°) of the
// tile had arrived by instant t.
func (r *Received) HasMaskingBy(chunk int, tile geom.TileID, t time.Duration) bool {
	if at := r.maskFullAt[chunk]; at != notReceived && at <= t {
		return true
	}
	at := r.maskTileAt[chunk*r.m.NumTiles()+int(tile)]
	return at != notReceived && at <= t
}

// HasMasking reports whether any masking version of the tile has arrived.
func (r *Received) HasMasking(chunk int, tile geom.TileID) bool {
	return r.HasMaskingBy(chunk, tile, 1<<62)
}

// HasFullMasking reports whether the full-360° masking chunk has arrived.
func (r *Received) HasFullMasking(chunk int) bool {
	return r.maskFullAt[chunk] != notReceived
}

// HeldSummary is a compact bitmap snapshot of which tile variants a client
// holds, independent of quality level — exactly the granularity of the
// server's redundancy-suppression state, so a reconnecting client can ship
// it in a resume handshake and never re-download a held tile.
type HeldSummary struct {
	NumChunks, NumTiles int
	// Primary and MaskTile are bitmaps over chunk*NumTiles+tile; MaskFull
	// is a bitmap over chunk.
	Primary  []byte
	MaskTile []byte
	MaskFull []byte
}

func bitGet(b []byte, i int) bool { return b[i>>3]&(1<<uint(i&7)) != 0 }
func bitSet(b []byte, i int)      { b[i>>3] |= 1 << uint(i&7) }

// Summary captures the current held state as bitmaps.
func (r *Received) Summary() HeldSummary {
	tiles := r.m.NumTiles()
	h := HeldSummary{
		NumChunks: r.m.NumChunks,
		NumTiles:  tiles,
		Primary:   make([]byte, (r.m.NumChunks*tiles+7)/8),
		MaskTile:  make([]byte, (r.m.NumChunks*tiles+7)/8),
		MaskFull:  make([]byte, (r.m.NumChunks+7)/8),
	}
	for ct := 0; ct < r.m.NumChunks*tiles; ct++ {
		for q := 0; q < video.NumQualities; q++ {
			if r.primaryAt[ct*video.NumQualities+q] != notReceived {
				bitSet(h.Primary, ct)
				break
			}
		}
		if r.maskTileAt[ct] != notReceived {
			bitSet(h.MaskTile, ct)
		}
	}
	for c := 0; c < r.m.NumChunks; c++ {
		if r.maskFullAt[c] != notReceived {
			bitSet(h.MaskFull, c)
		}
	}
	return h
}

// Valid reports whether the bitmap lengths match the declared dimensions.
func (h HeldSummary) Valid() bool {
	if h.NumChunks < 0 || h.NumTiles < 0 {
		return false
	}
	perTile := (h.NumChunks*h.NumTiles + 7) / 8
	perChunk := (h.NumChunks + 7) / 8
	return len(h.Primary) == perTile && len(h.MaskTile) == perTile && len(h.MaskFull) == perChunk
}

// HasPrimary reports whether any primary variant of the tile is held.
func (h HeldSummary) HasPrimary(chunk, tile int) bool {
	return bitGet(h.Primary, chunk*h.NumTiles+tile)
}

// HasMaskTile reports whether the tiled masking variant is held.
func (h HeldSummary) HasMaskTile(chunk, tile int) bool {
	return bitGet(h.MaskTile, chunk*h.NumTiles+tile)
}

// HasMaskFull reports whether the full-360° masking chunk is held.
func (h HeldSummary) HasMaskFull(chunk int) bool {
	return bitGet(h.MaskFull, chunk)
}

// Sent is the server's redundancy rule (§3.3) as state: a tile sent on the
// primary stream is never re-sent; masking is sent once, and not after the
// chunk's full-360° masking; a tile sent only as masking may still be
// upgraded on the primary stream. The engine's server model and the real
// server's send queue both filter their fetch lists through one.
type Sent struct {
	tiles    int
	primary  []bool // [chunk*tiles + tile]
	maskTile []bool // [chunk*tiles + tile]
	maskFull []bool // [chunk]
}

// NewSent creates the state of a session that has been sent nothing.
func NewSent(m *video.Manifest) *Sent {
	tiles := m.NumTiles()
	return &Sent{
		tiles:    tiles,
		primary:  make([]bool, m.NumChunks*tiles),
		maskTile: make([]bool, m.NumChunks*tiles),
		maskFull: make([]bool, m.NumChunks),
	}
}

// mark sets b[i] and reports whether it was clear.
func mark(b []bool, i int) bool {
	was := b[i]
	b[i] = true
	return !was
}

// Admit reports whether the rule lets the item be transmitted and, if so,
// marks it sent. The item must be In the manifest.
func (s *Sent) Admit(it RequestItem) bool {
	switch ct := it.Chunk*s.tiles + int(it.Tile); {
	case it.Stream == Primary:
		return mark(s.primary, ct)
	case it.Full360:
		return mark(s.maskFull, it.Chunk)
	default:
		return !s.maskFull[it.Chunk] && mark(s.maskTile, ct)
	}
}

// Preload marks everything a resuming client reports holding as sent and
// returns the number of entries newly marked.
func (s *Sent) Preload(h HeldSummary) int64 {
	var restored int64
	for c := 0; c < len(s.maskFull) && c < h.NumChunks; c++ {
		if h.HasMaskFull(c) && mark(s.maskFull, c) {
			restored++
		}
		for tl := 0; tl < s.tiles && tl < h.NumTiles; tl++ {
			ct := c*s.tiles + tl
			if h.HasPrimary(c, tl) && mark(s.primary, ct) {
				restored++
			}
			if h.HasMaskTile(c, tl) && mark(s.maskTile, ct) {
				restored++
			}
		}
	}
	return restored
}

// Count is the total number of held entries across all three maps.
func (h HeldSummary) Count() int {
	n := 0
	for _, m := range [][]byte{h.Primary, h.MaskTile, h.MaskFull} {
		for _, b := range m {
			n += bits.OnesCount8(b)
		}
	}
	return n
}
