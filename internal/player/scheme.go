// Package player implements the playback loop shared by every scheme and
// by both playback paths. Playback is the session state machine —
// frame-granularity rendering, both playback disciplines (continuous
// playback with skips, and stall-on-miss), the decision schedule and the
// full metric accounting of paper §4.1 — and owns neither a clock nor a
// link; a driver steps it: deliver what arrived, then Advance. Run is the
// simulator's driver (a virtual clock, a modelled server send queue and
// byte-accurate trace-driven delivery); internal/client is the wire's.
//
// Schemes (Dragonfly in internal/core, the baselines in internal/baseline)
// plug in through the Scheme interface: every decision interval they emit
// the ordered list of tile fetches that should replace the outstanding
// request, exactly as the paper's client/server protocol works (§3.3).
package player

import (
	"time"

	"dragonfly/internal/geom"
	"dragonfly/internal/video"
)

// StreamKind distinguishes the two streams of two-stream schemes. Schemes
// with a single stream use Primary for everything.
type StreamKind uint8

// The stream kinds.
const (
	Primary StreamKind = iota
	Masking
)

// String implements fmt.Stringer.
func (s StreamKind) String() string {
	if s == Masking {
		return "masking"
	}
	return "primary"
}

// RequestItem is one entry of a client fetch request: a tile (or a full-360°
// masking chunk) at a specific quality. Items are transmitted in list order.
type RequestItem struct {
	Stream  StreamKind
	Chunk   int
	Full360 bool        // fetch the whole chunk untiled (masking only)
	Tile    geom.TileID // ignored when Full360
	Quality video.Quality
}

// Size returns the transfer size of the item under the given manifest.
func (it RequestItem) Size(m *video.Manifest) int64 {
	if it.Full360 {
		return m.Full360Size(it.Chunk, it.Quality)
	}
	return m.TileSize(it.Chunk, it.Tile, it.Quality)
}

// In reports whether the item names a variant the manifest has. Items read
// off the wire must pass it before anything indexes the manifest, or state
// shaped like it (Received, HeldSummary), with them; the tile of a full-360°
// masking chunk is ignored, as everywhere else.
func (it RequestItem) In(m *video.Manifest) bool {
	if it.Chunk < 0 || it.Chunk >= m.NumChunks || !it.Quality.Valid() {
		return false
	}
	return it.Stream == Masking && it.Full360 || it.Tile >= 0 && int(it.Tile) < m.NumTiles()
}

// Checksum returns the manifest's CRC32-C for the item's payload and
// whether the manifest carries checksums at all (pre-wire-v3 manifests do
// not; callers skip payload verification for them).
func (it RequestItem) Checksum(m *video.Manifest) (uint32, bool) {
	if !m.HasChecksums() {
		return 0, false
	}
	if it.Full360 {
		return m.Full360Checksum(it.Chunk, it.Quality), true
	}
	return m.TileChecksum(it.Chunk, it.Tile, it.Quality), true
}

// StallPolicy selects the playback discipline when a needed tile is missing
// at its render deadline (Table 1's "Skip/stall approach").
type StallPolicy int

const (
	// NeverStall renders every frame on schedule, masking or blanking
	// missing tiles (Dragonfly and its skip variants).
	NeverStall StallPolicy = iota
	// StallOnMissingAny pauses playback until every viewport tile has some
	// renderable version (Flare, Pano).
	StallOnMissingAny
	// StallOnMissingMasking pauses playback until every viewport tile has a
	// masking version; primary tiles are passively skipped (Two-tier).
	StallOnMissingMasking
)

// Context is the state snapshot a Scheme sees at each decision epoch.
type Context struct {
	Now       time.Duration
	PlayFrame int  // the frame currently being (or about to be) rendered
	Stalled   bool // whether playback is currently stalled

	Manifest *video.Manifest
	Grid     *geom.Grid
	Viewport geom.Viewport

	// Received reports which tile variants have already arrived.
	Received *Received

	// Predict extrapolates the head orientation at a future instant using
	// the engine-owned viewport predictor (linear regression, §3.3).
	Predict func(at time.Duration) geom.Orientation

	// PredictedMbps is the throughput predictor's current estimate.
	PredictedMbps float64

	// FrameDeadline returns the wall-clock instant at which the given frame
	// will start rendering, assuming no further stalls.
	FrameDeadline func(frame int) time.Duration

	FrameDuration time.Duration

	// lists are the two fetch-list buffers FetchList alternates between.
	// A Playback lends its session's pair from the pooled storage.
	lists [2][]RequestItem
	flip  uint8
}

// LastChunk returns the chunk of the last frame within look-ahead of the
// play position, or of the video's last frame if that comes first: a
// scheme's look-ahead window runs from the play position's chunk to it.
func (c *Context) LastChunk(lookahead time.Duration) int {
	m := c.Manifest
	return m.ChunkOfFrame(min(c.PlayFrame+int(lookahead.Seconds()*float64(m.FPS)), m.NumFrames()-1))
}

// ChunkStart returns the instant chunk starts rendering, or Now if that
// has passed: the instant a scheme predicts the viewport for the chunk at.
func (c *Context) ChunkStart(chunk int) time.Duration {
	return max(c.FrameDeadline(c.Manifest.FirstFrame(chunk)), c.Now)
}

// FetchList returns the buffer a Decide builds its fetch list in: the one
// the previous Decide on this Context did not use. The scheme appends to
// (*buf)[:0] and stores the grown slice back in *buf, so the list it
// returns stays valid through the next Decide on this Context and its
// capacity serves the one after that. Contents past the scheme's own
// appends are undefined.
func (c *Context) FetchList() *[]RequestItem {
	c.flip ^= 1
	return &c.lists[c.flip]
}

// Scheme is a 360° streaming algorithm under test.
type Scheme interface {
	// Name identifies the scheme in results ("Dragonfly", "Flare", ...).
	Name() string
	// DecisionInterval is how often Decide runs: 100 ms for refining
	// schemes, one chunk for per-chunk schemes (Table 1).
	DecisionInterval() time.Duration
	// StallPolicy selects the playback discipline.
	StallPolicy() StallPolicy
	// Decide returns the ordered fetch list that replaces the outstanding
	// request. The server's SendQueue drops entries already sent
	// (re-sending only tiles previously delivered at masking quality), so
	// schemes may re-state their full intent each epoch.
	//
	// The returned slice may alias the Context's FetchList buffers or
	// memory the scheme owns. It stays valid through the next Decide on
	// the same Context, which is what a driver holding the outstanding
	// request needs; callers that keep a list longer must copy it. The
	// *Context is caller-owned and reused across decisions, so schemes
	// must not retain it past the call.
	Decide(ctx *Context) []RequestItem
}
