package player

import (
	"math/rand"
	"testing"

	"dragonfly/internal/geom"
	"dragonfly/internal/video"
)

// Sent is the redundancy rule as the server kept it before the resume
// bitmap became its state: one bool per (stream, chunk, tile), converted
// from and to a HeldSummary at every resume. Kept verbatim as the oracle
// for TestHeldSummaryRuleMatchesSent.

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
		if bitGet(h.MaskFull, c) && mark(s.maskFull, c) {
			restored++
		}
		for tl := 0; tl < s.tiles && tl < h.NumTiles; tl++ {
			ct := c*s.tiles + tl
			if bitGet(h.Primary, c*h.NumTiles+tl) && mark(s.primary, ct) {
				restored++
			}
			if bitGet(h.MaskTile, c*h.NumTiles+tl) && mark(s.maskTile, ct) {
				restored++
			}
		}
	}
	return restored
}

// randomPaddedSummary draws a summary of m's dimensions whose every byte is
// random, so the padding bits past the dimensions are set about half the
// time, as a peer's bitmap may have them.
func randomPaddedSummary(rng *rand.Rand, m *video.Manifest) HeldSummary {
	h := newHeldSummary(m)
	for _, b := range [][]byte{h.Primary, h.MaskTile, h.MaskFull} {
		for i := range b {
			// Sparse in-range bits keep most of the sequence admissible.
			b[i] = byte(rng.Intn(256)) & byte(rng.Intn(256)) & byte(rng.Intn(256))
			if rng.Intn(2) == 0 {
				b[i] |= 0x80
			}
		}
	}
	return h
}

// TestHeldSummaryRuleMatchesSent plays seeded random item sequences, with
// resume summaries merged in along the way, through HeldSummary and the
// oracle Sent on grids whose bitmaps end in padding. Every admit, every
// merge count and the final held sets must agree.
func TestHeldSummaryRuleMatchesSent(t *testing.T) {
	var padded int
	for _, g := range []struct{ rows, cols, chunks int }{{1, 1, 1}, {3, 3, 3}, {2, 5, 7}, {4, 4, 2}, {3, 7, 9}} {
		m := video.Generate(video.GenParams{ID: "held", Rows: g.rows, Cols: g.cols, NumChunks: g.chunks, Seed: 1})
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			h, s := newHeldSummary(m), NewSent(m)
			for step := 0; step < 300; step++ {
				if rng.Intn(25) == 0 {
					o := randomPaddedSummary(rng, m)
					if empty := newHeldSummary(m); int64(o.Count()) != empty.merge(o) {
						padded++
					}
					if got, want := h.merge(o), s.Preload(o); got != want {
						t.Fatalf("%dx%dx%d seed %d step %d: Merge set %d, Preload %d", g.rows, g.cols, g.chunks, seed, step, got, want)
					}
					continue
				}
				// Few chunks per sequence, so a chunk's full-360° masking
				// lands both before and after its tiles' masking.
				it := RequestItem{
					Chunk:   rng.Intn(min(g.chunks, 3)),
					Tile:    geom.TileID(rng.Intn(m.NumTiles())),
					Quality: video.Quality(rng.Intn(video.NumQualities)),
				}
				switch rng.Intn(6) {
				case 0:
					it.Stream, it.Full360 = Masking, true
				case 1, 2:
					it.Stream = Masking
				}
				if got, want := h.admit(it), s.Admit(it); got != want {
					t.Fatalf("%dx%dx%d seed %d step %d: Admit(%+v) = %v, Sent %v", g.rows, g.cols, g.chunks, seed, step, it, got, want)
				}
			}
			var held int
			for ct := range s.primary {
				if bitGet(h.Primary, ct) != s.primary[ct] || bitGet(h.MaskTile, ct) != s.maskTile[ct] {
					t.Fatalf("%dx%dx%d seed %d: entry %d held (%v, %v), Sent (%v, %v)", g.rows, g.cols, g.chunks, seed, ct,
						bitGet(h.Primary, ct), bitGet(h.MaskTile, ct), s.primary[ct], s.maskTile[ct])
				}
				held += b2i(s.primary[ct]) + b2i(s.maskTile[ct])
			}
			for c := range s.maskFull {
				if bitGet(h.MaskFull, c) != s.maskFull[c] {
					t.Fatalf("%dx%dx%d seed %d: chunk %d full-360° held %v, Sent %v", g.rows, g.cols, g.chunks, seed, c, bitGet(h.MaskFull, c), s.maskFull[c])
				}
				held += b2i(s.maskFull[c])
			}
			if h.Count() != held {
				t.Fatalf("%dx%dx%d seed %d: %d bits set for %d held entries: padding merged in", g.rows, g.cols, g.chunks, seed, h.Count(), held)
			}
		}
	}
	if padded == 0 {
		t.Fatal("no merged summary had a padding bit set")
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
