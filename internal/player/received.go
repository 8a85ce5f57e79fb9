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
	return newReceived(m, make([]time.Duration, arrivalsLen(m)))
}

// arrivalsLen is the length of the one arrival array a Received over m
// carves its three maps from.
func arrivalsLen(m *video.Manifest) int {
	ct := m.NumChunks * m.NumTiles()
	return ct*(video.NumQualities+1) + m.NumChunks
}

// newReceived carves an empty received-state for m out of arrivals, which
// must be arrivalsLen(m) long: the primary map, then the tiled masking
// map, then the full-360° one.
func newReceived(m *video.Manifest, arrivals []time.Duration) *Received {
	for i := range arrivals {
		arrivals[i] = notReceived
	}
	ct := m.NumChunks * m.NumTiles()
	p := ct * video.NumQualities
	return &Received{
		m:          m,
		primaryAt:  arrivals[:p:p],
		maskTileAt: arrivals[p : p+ct : p+ct],
		maskFullAt: arrivals[p+ct:],
	}
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

// bestPrimaryBy returns the highest primary quality of the tile that had
// arrived by instant t, and whether any arrived.
func (r *Received) bestPrimaryBy(chunk int, tile geom.TileID, t time.Duration) (video.Quality, bool) {
	for q := video.Quality(video.NumQualities - 1); q >= 0; q-- {
		at := r.primaryAt[r.pIdx(chunk, tile, q)]
		if at != notReceived && at <= t {
			return q, true
		}
	}
	return 0, false
}

// BestPrimary returns the highest primary quality held for the tile.
func (r *Received) BestPrimary(chunk int, tile geom.TileID) (video.Quality, bool) {
	return r.bestPrimaryBy(chunk, tile, 1<<62)
}

// hasMaskingBy reports whether a masking version (tiled or full-360°) of the
// tile had arrived by instant t.
func (r *Received) hasMaskingBy(chunk int, tile geom.TileID, t time.Duration) bool {
	if at := r.maskFullAt[chunk]; at != notReceived && at <= t {
		return true
	}
	at := r.maskTileAt[chunk*r.m.NumTiles()+int(tile)]
	return at != notReceived && at <= t
}

// HasMasking reports whether any masking version of the tile has arrived.
func (r *Received) HasMasking(chunk int, tile geom.TileID) bool {
	return r.hasMaskingBy(chunk, tile, 1<<62)
}

// HasFullMasking reports whether the full-360° masking chunk has arrived.
func (r *Received) HasFullMasking(chunk int) bool {
	return r.maskFullAt[chunk] != notReceived
}

// HeldSummary is a compact bitmap snapshot of which tile variants a client
// holds, independent of quality level. It is also a SendQueue's
// redundancy-suppression state (admit), so a reconnecting client can ship
// it in a resume handshake and the new server merges it in as is: a held
// tile is never re-downloaded.
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

// newHeldSummary returns the summary of a session that holds nothing.
func newHeldSummary(m *video.Manifest) HeldSummary {
	perTile := (m.NumChunks*m.NumTiles() + 7) / 8
	return HeldSummary{
		NumChunks: m.NumChunks,
		NumTiles:  m.NumTiles(),
		Primary:   make([]byte, perTile),
		MaskTile:  make([]byte, perTile),
		MaskFull:  make([]byte, (m.NumChunks+7)/8),
	}
}

// summary captures the current held state as bitmaps.
func (r *Received) summary() HeldSummary {
	h := newHeldSummary(r.m)
	for ct := 0; ct < r.m.NumChunks*h.NumTiles; ct++ {
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

// admit is the server's redundancy rule (§3.3) with the summary as its
// state: a tile sent on the primary stream is never re-sent; masking is
// sent once, and not after the chunk's full-360° masking; a tile sent only
// as masking may still be upgraded on the primary stream. It reports
// whether the rule lets the item be transmitted and, if so, marks it held.
// The item must be In the manifest.
func (h *HeldSummary) admit(it RequestItem) bool {
	switch ct := it.Chunk*h.NumTiles + int(it.Tile); {
	case it.Stream == Primary:
		return markBit(h.Primary, ct)
	case it.Full360:
		return markBit(h.MaskFull, it.Chunk)
	default:
		return !bitGet(h.MaskFull, it.Chunk) && markBit(h.MaskTile, ct)
	}
}

// markBit sets bit i of b and reports whether it was clear.
func markBit(b []byte, i int) bool {
	was := bitGet(b, i)
	bitSet(b, i)
	return !was
}

// merge ORs in what a resuming client reports holding and returns the
// number of entries newly set. o must be Valid with h's dimensions (the
// server checks a resume's geometry first); the padding bits past them in
// each bitmap's last byte are ignored.
func (h *HeldSummary) merge(o HeldSummary) int64 {
	n := h.NumChunks * h.NumTiles
	return orBits(h.Primary, o.Primary, n) + orBits(h.MaskTile, o.MaskTile, n) +
		orBits(h.MaskFull, o.MaskFull, h.NumChunks)
}

// orBits ORs the first n bits of src into dst and returns how many of them
// were clear in dst.
func orBits(dst, src []byte, n int) int64 {
	var set int64
	for i := 0; i < n; i += 8 {
		b := src[i>>3] &^ dst[i>>3]
		if n-i < 8 {
			b &= 1<<uint(n-i) - 1
		}
		dst[i>>3] |= b
		set += int64(bits.OnesCount8(b))
	}
	return set
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
