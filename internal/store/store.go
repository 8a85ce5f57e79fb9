// Package store implements the process-wide immutable tile store behind
// the server's zero-copy send path (ROADMAP: "shared immutable tile store
// + zero-copy send path"). At manifest load it pre-frames and
// pre-checksums every MsgTileData wire frame the manifest can ever
// produce — each (chunk, tile, quality) variant on both stream kinds,
// plus the untiled full-360° masking variants — so no send ever frames or
// checksums anything; and because the payloads are zeros, the load
// computes each frame's CRC32-C from the payload's length alone, never
// from its bytes (New). Sessions then serve tiles by reference: a send is
// three slice headers appended to a net.Buffers (head || payload ||
// trailer) and one vectored write, with zero per-send serialization or
// checksum work and zero per-connection payload memory.
//
// Memory model: the store keeps proto.TileFrameOverhead (20) bytes per
// frame — the head and CRC trailer — and cuts every payload from ONE fixed
// zero block of zeroBlockSize bytes, a package-level array every store in
// the process shares: a payload longer than the block is that many
// references to it in the net.Buffers, so no variant, however large, costs
// a byte of heap. Payload bytes are synthetic zeros: the
// schedulers only ever consume tile SIZES from the manifest, and the
// manifest's payload checksums are computed over the same zero bytes
// (video.Generate), so the pre-framed trailer and the client's payload
// verification agree bit for bit. A deployment serving real encoded tiles
// would hold one payload buffer per variant; heads, trailers, and the
// serve-by-reference path are unchanged, and New would frame each variant
// with proto.PreframeTile over its bytes, one CRC pass per frame.
//
// The store also serves the manifest's own sealed MsgManifest frame
// (ManifestFrame), encoded by the first session of the video and shared by
// every session that overlaps it. The store keeps it behind a weak pointer
// and each session holds it until it ends, so the collector reclaims it once
// no session does: an idle server pins no manifest frame.
//
// Everything in a Store but the held manifest frame is immutable after New
// returns, so any number of connection handlers may read it concurrently
// without locks; the frame is found or encoded under the store's lock.
// Shared deduplicates stores process-wide per manifest, the same pattern
// as geom.SharedTable and quality.Scores.
package store

import (
	"net"
	"sync"
	"time"
	"unsafe"
	"weak"

	"dragonfly/internal/chaos"
	"dragonfly/internal/geom"
	"dragonfly/internal/player"
	"dragonfly/internal/proto"
	"dragonfly/internal/video"
)

// store.frame is the disk-tier failpoint (see docs/RESILIENCE.md): armed,
// it withholds a frame (error/partial kinds — the tile is simply not
// appended this pass, as if the backing read failed) or substitutes a
// CRC-valid frame whose payload is corrupted (corrupt kind) — the wire
// trailer is recomputed over the flipped payload, so the link survives and
// the client's manifest payload checksum is the only guard that can catch
// it. Disarmed it is one atomic load inside AppendFrame, pinned by the
// steady-state zero-alloc test and BenchmarkFrameWritePreframed.
var siteFrame = chaos.NewSite("store.frame")

// Store holds the pre-framed wire buffers of every tile frame of one
// manifest, and the manifest frame while a session holds it; see the
// package comment.
type Store struct {
	m     *video.Manifest
	tiles int

	// heads and trailers are flat per-frame slabs: frame i owns
	// heads[i*TileHeadSize:(i+1)*TileHeadSize] and the matching trailer
	// window. The head encodes the full wire item — including its Stream
	// kind, which the client uses to record primary vs masking — so tiled
	// variants hold one frame per stream kind. Layout: primary tiled
	// frames first ((chunk*tiles+tile)*Q+q), then the masking tiled
	// frames (+tiledCount), then the full-360° masking frames
	// (2*tiledCount + chunk*Q + q).
	heads    []byte
	trailers []byte

	// mu guards the manifest frame's weak pointer. It points at the first
	// byte of the sealed frame, frameLen bytes long, so the plain []byte a
	// session holds is what keeps the frame alive, and ManifestFrame
	// rebuilds that slice from it while one does.
	mu       sync.Mutex
	frame    weak.Pointer[byte]
	frameLen int
}

// zeroBlockSize is the length of the zero block every payload is cut from.
const zeroBlockSize = 1 << 20

// zeros is the zero block: payloads are cut from it as many times as they
// need, and nothing ever writes it.
var zeros [zeroBlockSize]byte

// appendPayload appends a size-byte zero payload to bufs as references to
// the zero block. A zero-length payload appends nothing: an empty Write
// blocks on rendezvous transports (net.Pipe) and costs a syscall for
// nothing.
func appendPayload(bufs net.Buffers, size int64) net.Buffers {
	for ; size > zeroBlockSize; size -= zeroBlockSize {
		bufs = append(bufs, zeros[:])
	}
	if size > 0 {
		bufs = append(bufs, zeros[:size])
	}
	return bufs
}

// New builds the store for a manifest, pre-framing every frame. This is
// the warm-up cost of a manifest load, and it is O(frames), not O(bytes):
// the payloads are zeros, so each trailer is the head's CRC32-C carried
// across the payload length by proto.PreframeZeroTile — under 100 ns a
// frame all told, ~8 ms for the 86 700 frames of a minute of video at any
// bitrate, never reading a payload byte (see "Cold start" in
// docs/PERFORMANCE.md for the cost model). A variant whose frame
// would exceed proto.MaxFrameSize — impossible to send on this wire at all
// — is left unbuilt, and AppendFrame reports it as out of range so senders
// skip it instead of tearing the session down mid-stream.
func New(m *video.Manifest) *Store {
	tiles := m.NumTiles()
	nv := 2*m.NumChunks*tiles*video.NumQualities + m.NumChunks*video.NumQualities
	s := &Store{
		m:        m,
		tiles:    tiles,
		heads:    make([]byte, nv*proto.TileHeadSize),
		trailers: make([]byte, nv*proto.TileTrailerSize),
	}
	forEachFrame(m, func(i int, it player.RequestItem) {
		head := s.heads[i*proto.TileHeadSize : (i+1)*proto.TileHeadSize]
		trailer := s.trailers[i*proto.TileTrailerSize : (i+1)*proto.TileTrailerSize]
		size := it.Size(m)
		// An unsendable variant leaves its head zeroed (a tile frame head
		// always carries the nonzero MsgTileData type byte), which locate
		// treats as absent.
		_ = proto.PreframeZeroTile(head, trailer, it, size)
	})
	return s
}

// forEachFrame enumerates every sendable wire frame of the manifest in
// store index order: all tiled (chunk, tile, quality) triples as primary,
// the same triples as masking, then the untiled full-360° (chunk,
// quality) pairs (masking by definition).
func forEachFrame(m *video.Manifest, f func(i int, it player.RequestItem)) {
	tiles := m.NumTiles()
	i := 0
	for _, stream := range []player.StreamKind{player.Primary, player.Masking} {
		for c := 0; c < m.NumChunks; c++ {
			for t := 0; t < tiles; t++ {
				for q := video.Quality(0); q < video.NumQualities; q++ {
					f(i, player.RequestItem{Stream: stream, Chunk: c, Tile: geom.TileID(t), Quality: q})
					i++
				}
			}
		}
	}
	for c := 0; c < m.NumChunks; c++ {
		for q := video.Quality(0); q < video.NumQualities; q++ {
			f(i, player.RequestItem{Stream: player.Masking, Chunk: c, Full360: true, Quality: q})
			i++
		}
	}
}

// locate maps an item to its frame index and payload size; ok is false
// for items outside the manifest or beyond the frame cap. A full-360°
// item on the primary stream is rejected too: the untiled chunk exists
// only as a masking-stream payload, and real fetch lists never ask
// otherwise.
func (s *Store) locate(it player.RequestItem) (idx int, size int64, ok bool) {
	if it.Chunk < 0 || it.Chunk >= s.m.NumChunks || !it.Quality.Valid() {
		return 0, 0, false
	}
	tiled := s.m.NumChunks * s.tiles * video.NumQualities
	if it.Full360 {
		if it.Stream != player.Masking {
			return 0, 0, false
		}
		idx = 2*tiled + it.Chunk*video.NumQualities + int(it.Quality)
		size = s.m.Full360Size(it.Chunk, it.Quality)
	} else {
		if int(it.Tile) < 0 || int(it.Tile) >= s.tiles {
			return 0, 0, false
		}
		idx = (it.Chunk*s.tiles+int(it.Tile))*video.NumQualities + int(it.Quality)
		switch it.Stream {
		case player.Primary:
		case player.Masking:
			idx += tiled
		default:
			return 0, 0, false
		}
		size = s.m.TileSize(it.Chunk, it.Tile, it.Quality)
	}
	if s.heads[idx*proto.TileHeadSize+4] == 0 {
		// Zeroed type byte: the variant could not be framed (beyond the
		// frame cap).
		return 0, 0, false
	}
	return idx, size, true
}

// AppendFrame appends the item's pre-framed wire buffers — head, payload,
// trailer — to bufs and returns the extended slice plus the frame's total
// wire size. ok is false for items outside the manifest (or beyond the
// frame cap): nothing is appended and the caller should skip the item,
// exactly as the server's queue does for malformed entries.
//
// The appended slices are immutable shared references. Callers must never
// write through them; net.Buffers.WriteTo only ever reslices the
// net.Buffers value itself, so handing the same underlying buffers to any
// number of concurrent connections is race-free. Note that WriteTo
// CONSUMES the value it runs on — it reslices the header forward to zero
// capacity — so a sender reusing its scratch across batches must call
// WriteTo on a copy of the slice header and keep appending into the
// original (see the server's sender loop).
func (s *Store) AppendFrame(bufs net.Buffers, it player.RequestItem) (net.Buffers, int64, bool) {
	idx, size, ok := s.locate(it)
	if !ok {
		return bufs, 0, false
	}
	if f := siteFrame.Fault(); f.Active() {
		return s.appendFaulted(bufs, it, idx, size, f)
	}
	return s.appendStored(bufs, idx, size), int64(proto.TileFrameOverhead) + size, true
}

// appendStored appends frame idx's head, its size-byte payload from the
// zero block and its trailer.
func (s *Store) appendStored(bufs net.Buffers, idx int, size int64) net.Buffers {
	bufs = append(bufs, s.heads[idx*proto.TileHeadSize:(idx+1)*proto.TileHeadSize])
	bufs = appendPayload(bufs, size)
	return append(bufs, s.trailers[idx*proto.TileTrailerSize:(idx+1)*proto.TileTrailerSize])
}

// appendFaulted is the armed store.frame slow path. Error and partial
// kinds withhold the frame — the caller sees the same "store cannot serve
// this item" skip a locate miss produces, and the client refetches through
// normal scheduling. Delay stalls, then serves normally. Corrupt builds a
// fresh frame (never touching the shared immutable buffers) whose payload
// has one flipped byte and whose trailer CRC is recomputed to match: the
// wire layer accepts it, and only the client's per-tile manifest checksum
// can reject the tile.
func (s *Store) appendFaulted(bufs net.Buffers, it player.RequestItem, idx int, size int64, f chaos.Fault) (net.Buffers, int64, bool) {
	switch f.Kind {
	case chaos.FaultDelay:
		time.Sleep(f.Delay)
	case chaos.FaultCorrupt:
		if size == 0 {
			break // nothing to corrupt in an empty payload; serve normally
		}
		head := make([]byte, proto.TileHeadSize)
		trailer := make([]byte, proto.TileTrailerSize)
		payload := make([]byte, size) // the zero block's bytes
		payload[int(f.Tick%uint64(size))] ^= 0x01
		if err := proto.PreframeTile(head, trailer, it, payload); err != nil {
			return bufs, 0, false
		}
		bufs = append(bufs, head, payload, trailer)
		return bufs, int64(proto.TileFrameOverhead) + size, true
	default: // error, partial: the frame is withheld this pass
		return bufs, 0, false
	}
	return s.appendStored(bufs, idx, size), int64(proto.TileFrameOverhead) + size, true
}

// Frame returns the item's complete pre-framed wire buffers; a convenience
// wrapper over AppendFrame for tests and single-frame sends.
func (s *Store) Frame(it player.RequestItem) (net.Buffers, int64, bool) {
	return s.AppendFrame(nil, it)
}

// ManifestFrame returns the manifest's sealed MsgManifest frame, byte for
// byte what proto.WriteManifest writes, for a session to send with one
// Write. The first caller after no session held the frame encodes it, under
// the store's lock, so concurrent session starts of one video encode once.
// The store keeps only a weak pointer to the frame: the caller holds the
// returned slice for as long as its session runs — which keeps the frame
// for every session that starts meanwhile — and must never write through
// it. Once no session holds it the collector reclaims it.
func (s *Store) ManifestFrame() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.frame.Value(); p != nil {
		return unsafe.Slice(p, s.frameLen), nil
	}
	frame, err := appendManifestFrame(nil, s.m)
	if err != nil {
		return nil, err
	}
	s.frame, s.frameLen = weak.Make(&frame[0]), len(frame)
	return frame, nil
}

// appendManifestFrame is the encoder ManifestFrame calls, a variable so the
// tests can count encodes.
var appendManifestFrame = proto.AppendManifestFrame

// Footprint reports the resident footprint of a set of stores: each one's
// per-frame heads and trailers, plus the zero block their payloads are cut
// from, once. That is the cost of serving the manifests' tiles to any
// number of concurrent sessions, and the srv_store_bytes gauge of a server
// holding those stores. A manifest frame lives only while sessions hold it
// and is not counted.
func Footprint(stores ...*Store) int64 {
	n := int64(len(zeros))
	for _, s := range stores {
		n += int64(len(s.heads) + len(s.trailers))
	}
	return n
}

// storeHolder defers construction so concurrent Shared callers block on
// one build instead of racing to build duplicates.
type storeHolder struct {
	once  sync.Once
	store *Store
}

var sharedStores sync.Map // *video.Manifest -> *storeHolder

// Shared returns the process-wide store for the manifest, building it
// once on first use. Every server (and every cold-restarted server in the
// same process sharing the manifest pointer) serves from the same
// immutable frames; warm it before fanning out many servers or sessions,
// the way sim pre-warms the shared overlap and score tables.
func Shared(m *video.Manifest) *Store {
	h, ok := sharedStores.Load(m)
	if !ok {
		h, _ = sharedStores.LoadOrStore(m, &storeHolder{})
	}
	holder := h.(*storeHolder)
	holder.once.Do(func() { holder.store = New(m) })
	return holder.store
}
