// Package proto defines the wire protocol between the Dragonfly client and
// the tile server (paper §3.3): the client sends tile requests — each
// superseding the previous one — and the server streams tile data back,
// never re-sending a tile already delivered above masking quality.
//
// Framing (wire v3): every message is [4-byte big-endian length][1-byte
// type][body][4-byte CRC32-C trailer]; the length counts type+body and the
// checksum covers the same bytes, so a flipped bit anywhere in a frame —
// including its length prefix, which desynchronizes the stream — surfaces
// as a clean integrity error instead of decoded garbage. Bodies use
// fixed-width big-endian integers; the manifest travels as JSON (it is
// sent once per session).
//
// Writer contract: every frame goes out as a single Write call (or one
// vectored net.Buffers write for pre-framed tiles), so a frame is atomic
// on any conn that serializes Write calls — but frame ORDER across
// writers is not. Each connection direction must have exactly one writer
// goroutine; that is how the server (one tile sender per conn) and the
// client (one request writer) are structured.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"

	"dragonfly/internal/geom"
	"dragonfly/internal/player"
	"dragonfly/internal/video"
)

// MsgType tags a frame.
type MsgType uint8

// The protocol messages.
const (
	// MsgHello (client -> server): request a video by ID.
	MsgHello MsgType = iota + 1
	// MsgManifest (server -> client): the video manifest, as JSON.
	MsgManifest
	// MsgRequest (client -> server): a full fetch list with a generation
	// number; it replaces any earlier request ("the server discards the
	// previous request", §3.3).
	MsgRequest
	// MsgTileData (server -> client): one tile (or full-360° chunk) payload.
	MsgTileData
	// MsgBye (either direction): orderly shutdown.
	MsgBye
	// MsgError (server -> client): a fatal server-side error description.
	MsgError
	// MsgResume (client -> server): reopen a session after a disconnect,
	// carrying a bitmap summary of the tiles the client already holds so
	// the server can rebuild its redundancy-suppression state instead of
	// re-sending them.
	MsgResume
	// MsgPing (either direction): with an empty body, the server's idle
	// heartbeat, letting the client distinguish an idle link from a dead
	// one. Sent by a client (or balancer) as the *first* message of a
	// connection it is a health probe: the server answers with a status
	// pong (a MsgPing whose body carries drain state and active-session
	// count) and ends the session. Receivers ignore bodies they do not
	// understand, so the status body is wire-compatible with plain pings.
	MsgPing
)

// ProtoVersion is the wire-protocol version carried inside resume frames.
// Version 1 is the original (implicit) protocol; version 2 adds MsgResume
// and MsgPing; version 3 appends the CRC32-C trailer to every frame. A
// peer receiving a resume with a different version answers with a clean
// MsgError instead of desynchronizing; a v2 peer reading v3 frames (or
// vice versa) desynchronizes by exactly the trailer width and fails the
// next checksum, so version skew also surfaces as a clean error — the
// v2→v3 compatibility rule documented in docs/RESILIENCE.md.
const ProtoVersion = 3

// MaxFrameSize bounds a single frame; the largest legitimate payload is a
// full-360° chunk at the highest quality (a few MB), plus the multi-MB
// JSON manifest of a long video. A declared length beyond the cap is
// rejected before any body allocation.
const MaxFrameSize = 64 << 20

// trailerSize is the width of the CRC32-C frame trailer.
const trailerSize = 4

// frameHeaderSize is the width of the frame header: 4-byte big-endian
// length prefix plus the 1-byte message type.
const frameHeaderSize = 5

// Pre-framed tile layout: a MsgTileData frame splits into a fixed-size head
// (frame header + encoded item), the payload, and the CRC trailer, so an
// immutable tile store can keep the head and trailer per variant and serve
// the frame by reference with vectored I/O (see PreframeTile).
const (
	// TileHeadSize is the byte width of a pre-framed tile head.
	TileHeadSize = frameHeaderSize + itemWireSize
	// TileTrailerSize is the byte width of a pre-framed tile trailer.
	TileTrailerSize = trailerSize
	// TileFrameOverhead is the fixed wire overhead of one MsgTileData
	// frame beyond its payload bytes.
	TileFrameOverhead = TileHeadSize + TileTrailerSize
)

// castagnoli is the CRC32-C table shared by frame trailers and tile
// payload checksums (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// PayloadChecksum is the tile-payload checksum carried per variant in the
// manifest: CRC32-C over the encoded payload bytes. The client verifies it
// before marking a tile held, catching corruption end to end even when the
// per-frame trailer was computed over already-corrupt data.
func PayloadChecksum(payload []byte) uint32 {
	return crc32.Checksum(payload, castagnoli)
}

// ErrChecksum reports a frame whose CRC32-C trailer does not match its
// contents. Peers treat it like any other link error — tear the
// connection and (for resilient clients) reconnect — but counters keyed
// on it separate corruption from ordinary resets.
var ErrChecksum = errors.New("proto: frame checksum mismatch")

// ErrFrameTooLarge reports a declared frame length beyond MaxFrameSize;
// it is returned before any body allocation, so a corrupted or hostile
// length prefix cannot commit gigabytes of memory.
var ErrFrameTooLarge = errors.New("proto: frame exceeds length cap")

// busyPrefix tags transient admission-control rejections (connection
// limit, drain mode). It travels inside MsgError text so the wire format
// needs no new message type, and clients treat it as retryable with
// backoff rather than fatal.
const busyPrefix = "busy: "

// BusyText builds the canonical retryable-rejection error text.
func BusyText(reason string) string { return busyPrefix + reason }

// IsBusyText reports whether an MsgError text is a transient
// admission-control rejection the client should retry with backoff.
func IsBusyText(text string) bool { return strings.HasPrefix(text, busyPrefix) }

// Hello opens a session.
type Hello struct {
	VideoID string
	// Cohort optionally labels the session for fleet QoE rollups
	// ("<trace class>:<network class>"); the server keys its QoE-feedback
	// shed scaling by it. Empty means unclassified, and the field is
	// omitted from the wire so old peers interoperate.
	Cohort string
}

// Request carries an ordered fetch list.
type Request struct {
	Generation uint32
	Items      []player.RequestItem
}

// TileData carries one delivered item and its payload.
type TileData struct {
	Item    player.RequestItem
	Payload []byte
}

// Resume reopens a session after a disconnect. Held summarizes the tile
// variants the client already has at exactly the granularity of the
// server's dedup arrays, so a resumed session never re-downloads them.
type Resume struct {
	Version uint8
	VideoID string
	Held    player.HeldSummary
	// Cohort re-labels the resumed session for QoE-feedback shed scaling,
	// exactly as Hello.Cohort does for a fresh one; a cold-restarted server
	// has no memory of the original hello, so the label must travel with
	// the resume. Optional on the wire (trailing length-prefixed field).
	Cohort string
}

// Pong is the status body a server attaches to the MsgPing it returns for
// a health probe: liveness plus the two facts a balancer routes on without
// a side channel — whether the server is draining and how loaded it is. A
// plain heartbeat ping has no body and decodes with a nil Pong.
type Pong struct {
	// Draining reports the server is refusing new sessions (drain mode).
	// Note a draining server usually fast-rejects the probe with a busy
	// MsgError before reading it, so probers must treat a busy reject as
	// "alive but draining" too; the flag exists for probes that do get a
	// pong back.
	Draining bool
	// ActiveConns is the server's in-flight session count at probe time,
	// excluding the probe connection itself — a load signal for balancers
	// with no admin-endpoint access.
	ActiveConns uint32
}

// pongWireSize is the encoded size of a status pong body.
const pongWireSize = 1 + 4

// writeFrame emits one framed message with its CRC32-C trailer.
func writeFrame(w io.Writer, t MsgType, body []byte) error {
	return writeFrameChecked(w, t, body, true)
}

// writeFrameChecked is the framing core; withCRC false emits the legacy
// wire-v2 layout (no trailer), kept for the compatibility tests and the
// checksum-overhead benchmark.
//
// The whole frame — header, body, trailer — is assembled in one buffer and
// emitted with a single Write call. The earlier three-write layout could
// tear a frame mid-stream if two goroutines ever wrote to the same conn:
// net.Conn serializes individual Write calls but promises nothing across
// them. The single write makes each frame atomic on any conn that
// serializes Writes; the package contract is still one writer goroutine
// per connection direction (the server's tile sender, the client's
// request writer) — concurrent writers would interleave whole frames in
// an order the generation numbers must then sort out.
func writeFrameChecked(w io.Writer, t MsgType, body []byte, withCRC bool) error {
	if len(body)+1 > MaxFrameSize {
		return fmt.Errorf("proto: frame too large (%d bytes)", len(body))
	}
	frame := make([]byte, frameHeaderSize, frameHeaderSize+len(body)+trailerSize)
	return sealFrame(w, t, append(frame, body...), withCRC)
}

// sealFrame completes a frame assembled in place — frameHeaderSize bytes
// reserved, then the body — by filling in its header and appending its
// trailer, and emits it with one Write.
func sealFrame(w io.Writer, t MsgType, frame []byte, withCRC bool) error {
	body := len(frame) - frameHeaderSize
	if body+1 > MaxFrameSize {
		return fmt.Errorf("proto: frame too large (%d bytes)", body)
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(body+1))
	frame[4] = byte(t)
	if withCRC {
		frame = binary.BigEndian.AppendUint32(frame, crc32.Checksum(frame[4:], castagnoli))
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("proto: write frame: %w", err)
	}
	return nil
}

// PreframeTile fills head[:TileHeadSize] with the frame header and encoded
// item, and trailer[:TileTrailerSize] with the CRC32-C frame trailer, of
// the MsgTileData frame carrying payload. The concatenation
// head || payload || trailer is byte-identical to the stream WriteTileData
// produces, so a pre-framed tile can be served by reference (net.Buffers)
// with zero per-send serialization or checksum work. The CRC — the ~30x
// cost of a framed write (BenchmarkFrameWriteCRC) — is paid once here
// instead of once per send. internal/store frames its all-zero payloads
// with PreframeZeroTile, which never reads them; this form, over real
// bytes, serves WriteTileData and the store.frame corrupt failpoint, and is
// the byte oracle the zero form is tested against.
func PreframeTile(head, trailer []byte, it player.RequestItem, payload []byte) error {
	sum, err := preframeHead(head, trailer, it, int64(len(payload)))
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint32(trailer[:TileTrailerSize], crc32.Update(sum, castagnoli, payload))
	return nil
}

// PreframeZeroTile is PreframeTile for a payload of size zero bytes, without
// the bytes: the head is the same, and the trailer is the head's CRC32-C
// extended over size zeros by video.ExtendZeros — a handful of table steps
// where PreframeTile makes one pass over the payload. A negative size is
// rejected like an over-cap one, with head and trailer untouched.
func PreframeZeroTile(head, trailer []byte, it player.RequestItem, size int64) error {
	sum, err := preframeHead(head, trailer, it, size)
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint32(trailer[:TileTrailerSize], video.ExtendZeros(sum, size))
	return nil
}

// preframeHead validates a tile frame of size payload bytes, writes its
// head, and returns the CRC32-C of the checksummed head bytes (type and
// item) for the caller to extend over the payload. It writes nothing on
// error: the store reads a zeroed head as "variant not framed".
func preframeHead(head, trailer []byte, it player.RequestItem, size int64) (uint32, error) {
	if len(head) < TileHeadSize || len(trailer) < TileTrailerSize {
		return 0, fmt.Errorf("proto: preframe buffers too small (%d/%d bytes)", len(head), len(trailer))
	}
	if size < 0 {
		return 0, fmt.Errorf("proto: negative payload size %d", size)
	}
	if size > MaxFrameSize-1-itemWireSize { // compared on this side: size may be near MaxInt64
		return 0, fmt.Errorf("proto: frame too large (%d-byte payload)", size)
	}
	binary.BigEndian.PutUint32(head[:4], uint32(1+itemWireSize+size))
	head[4] = byte(MsgTileData)
	encodeItem(head[frameHeaderSize:TileHeadSize], it)
	return crc32.Checksum(head[4:TileHeadSize], castagnoli), nil
}

// readChunk caps how much body memory is committed ahead of the bytes
// actually arriving: a frame claiming many MB grows its buffer as data
// comes in, so a corrupted or hostile length prefix backed by a short
// stream costs at most one chunk, not the declared length.
const readChunk = 1 << 20

// readFrame reads one framed message and verifies its trailer.
func readFrame(r io.Reader) (MsgType, []byte, error) {
	return readFrameChecked(r, true)
}

// readFrameChecked is the de-framing core; withCRC false reads the legacy
// wire-v2 layout.
func readFrameChecked(r io.Reader, withCRC bool) (MsgType, []byte, error) {
	t, body, _, err := readFrameInto(r, nil, withCRC)
	return t, body, err
}

// readFrameInto reads one framed message into buf, reallocating when its
// capacity does not suffice (a nil buf always allocates), in two reads: the
// header, then body and trailer together. The whole frame lies contiguous
// in the buffer, so the checksum is one call over type and body, and no
// header or trailer scratch escapes to the heap through io.ReadFull. The
// returned body aliases the returned buffer, which replaces buf; the caller
// owns exactly one of the two.
func readFrameInto(r io.Reader, buf []byte, withCRC bool) (MsgType, []byte, []byte, error) {
	if cap(buf) < frameHeaderSize {
		buf = make([]byte, frameHeaderSize)
	}
	buf = buf[:frameHeaderSize]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, buf, err
	}
	n := binary.BigEndian.Uint32(buf[:4])
	if n < 1 {
		return 0, nil, buf, fmt.Errorf("proto: bad frame length %d", n)
	}
	if n > MaxFrameSize {
		// Reject before allocating anything: the declared length is
		// attacker-controlled (or one bit flip away from absurd).
		return 0, nil, buf, fmt.Errorf("proto: frame length %d: %w", n, ErrFrameTooLarge)
	}
	end := frameHeaderSize + int(n-1) // of the body; the trailer follows it
	frameEnd := end
	if withCRC {
		frameEnd += trailerSize
	}
	buf, err := readAppend(r, buf, frameEnd-frameHeaderSize)
	if err != nil {
		return 0, nil, buf, fmt.Errorf("proto: read body: %w", err)
	}
	if withCRC && crc32.Checksum(buf[4:end], castagnoli) != binary.BigEndian.Uint32(buf[end:]) {
		return 0, nil, buf, ErrChecksum
	}
	return MsgType(buf[4]), buf[frameHeaderSize:end], buf, nil
}

// readAppend reads exactly n more bytes onto the end of buf, reallocating
// when its capacity is too small. A buffer that already fits the declared
// length is filled in one read (nothing speculative about that); otherwise
// it grows chunk by chunk, so allocation tracks delivery, not the declared
// length.
func readAppend(r io.Reader, buf []byte, n int) ([]byte, error) {
	end := len(buf) + n
	// Growth may overshoot the frame up to twice what earlier frames
	// already paid for, so a reused buffer meeting ever-larger frames
	// doubles — O(log n) reallocations — instead of reallocating to each
	// new maximum. A fresh buffer has paid for nothing and stops at the
	// frame's end.
	limit := max(end, 2*cap(buf))
	for len(buf) < end {
		at := len(buf)
		c := end - at
		if c > readChunk && cap(buf) < end {
			c = readChunk
		}
		if cap(buf) < at+c {
			// Double, capped at the limit: growth is paid for by bytes
			// already received, never by the declared length alone. (The
			// first chunk is on trust, whatever the buffer held before.)
			grow := 2 * cap(buf)
			if grow < at+c {
				grow = at + c
			}
			if grow > limit {
				grow = limit
			}
			buf = append(make([]byte, 0, grow), buf...)
		}
		buf = buf[:at+c]
		if _, err := io.ReadFull(r, buf[at:]); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// WriteHello sends a Hello. The cohort label travels as an optional
// length-prefixed trailer: absent entirely when empty, so the frame is
// byte-identical to the pre-cohort wire form for unclassified sessions.
func WriteHello(w io.Writer, h Hello) error {
	if len(h.VideoID) > 255 {
		return fmt.Errorf("proto: video id too long")
	}
	if len(h.Cohort) > 255 {
		return fmt.Errorf("proto: cohort label too long")
	}
	body := append([]byte{byte(len(h.VideoID))}, h.VideoID...)
	if h.Cohort != "" {
		body = append(body, byte(len(h.Cohort)))
		body = append(body, h.Cohort...)
	}
	return writeFrame(w, MsgHello, body)
}

func parseHello(body []byte) (Hello, error) {
	if len(body) < 1 || len(body) < 1+int(body[0]) {
		return Hello{}, fmt.Errorf("proto: malformed hello")
	}
	h := Hello{VideoID: string(body[1 : 1+int(body[0])])}
	rest := body[1+int(body[0]):]
	if len(rest) == 0 {
		return h, nil // pre-cohort form
	}
	if len(rest) != 1+int(rest[0]) {
		return Hello{}, fmt.Errorf("proto: malformed hello cohort")
	}
	h.Cohort = string(rest[1:])
	return h, nil
}

// WriteManifest sends the manifest as JSON. The body is encoded straight
// into the frame behind its reserved header, so header, body and trailer
// share one buffer and one Write.
func WriteManifest(w io.Writer, m *video.Manifest) error {
	frame, err := m.AppendJSON(make([]byte, frameHeaderSize))
	if err != nil {
		return err
	}
	return sealFrame(w, MsgManifest, frame, true)
}

// itemWireSize is the encoded size of one request item.
const itemWireSize = 1 + 4 + 1 + 4 + 1

func encodeItem(buf []byte, it player.RequestItem) {
	buf[0] = byte(it.Stream)
	binary.BigEndian.PutUint32(buf[1:5], uint32(it.Chunk))
	if it.Full360 {
		buf[5] = 1
	} else {
		buf[5] = 0
	}
	binary.BigEndian.PutUint32(buf[6:10], uint32(it.Tile))
	buf[10] = byte(it.Quality)
}

func decodeItem(buf []byte) (player.RequestItem, error) {
	it := player.RequestItem{
		Stream:  player.StreamKind(buf[0]),
		Chunk:   int(binary.BigEndian.Uint32(buf[1:5])),
		Full360: buf[5] == 1,
		Tile:    geom.TileID(binary.BigEndian.Uint32(buf[6:10])),
		Quality: video.Quality(buf[10]),
	}
	if it.Stream != player.Primary && it.Stream != player.Masking {
		return it, fmt.Errorf("proto: bad stream kind %d", buf[0])
	}
	if !it.Quality.Valid() {
		return it, fmt.Errorf("proto: bad quality %d", buf[10])
	}
	return it, nil
}

// WriteRequest sends a fetch list.
func WriteRequest(w io.Writer, r Request) error {
	body := make([]byte, 4+4+len(r.Items)*itemWireSize)
	binary.BigEndian.PutUint32(body[:4], r.Generation)
	binary.BigEndian.PutUint32(body[4:8], uint32(len(r.Items)))
	for i, it := range r.Items {
		encodeItem(body[8+i*itemWireSize:], it)
	}
	return writeFrame(w, MsgRequest, body)
}

func parseRequest(body []byte) (Request, error) {
	if len(body) < 8 {
		return Request{}, fmt.Errorf("proto: short request")
	}
	r := Request{Generation: binary.BigEndian.Uint32(body[:4])}
	// Validate the count before multiplying: on 32-bit platforms
	// n*itemWireSize can overflow int, and Uint32 is never negative, so
	// bound it by the largest count a legal frame could carry instead.
	n32 := binary.BigEndian.Uint32(body[4:8])
	if n32 > (MaxFrameSize-8)/itemWireSize {
		return Request{}, fmt.Errorf("proto: request item count %d exceeds frame cap", n32)
	}
	n := int(n32)
	if len(body) != 8+n*itemWireSize {
		return Request{}, fmt.Errorf("proto: malformed request (%d items, %d bytes)", n, len(body))
	}
	r.Items = make([]player.RequestItem, n)
	for i := 0; i < n; i++ {
		it, err := decodeItem(body[8+i*itemWireSize:])
		if err != nil {
			return Request{}, err
		}
		r.Items[i] = it
	}
	return r, nil
}

// WriteTileData sends one delivered tile with its payload. The frame is
// assembled in a single buffer and emitted with one Write (the same
// torn-frame guarantee as writeFrameChecked); the server's steady-state
// send path avoids even this one serialization by serving pre-framed
// buffers from internal/store instead.
func WriteTileData(w io.Writer, td TileData) error {
	frame := make([]byte, TileFrameOverhead+len(td.Payload))
	if err := PreframeTile(frame[:TileHeadSize], frame[len(frame)-TileTrailerSize:], td.Item, td.Payload); err != nil {
		return err
	}
	copy(frame[TileHeadSize:], td.Payload)
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("proto: write frame: %w", err)
	}
	return nil
}

func parseTileData(body []byte) (TileData, error) {
	if len(body) < itemWireSize {
		return TileData{}, fmt.Errorf("proto: short tile data")
	}
	it, err := decodeItem(body)
	if err != nil {
		return TileData{}, err
	}
	return TileData{Item: it, Payload: body[itemWireSize:]}, nil
}

// WriteResume sends a session-resume request.
func WriteResume(w io.Writer, r Resume) error {
	if len(r.VideoID) > 255 {
		return fmt.Errorf("proto: video id too long")
	}
	h := r.Held
	if !h.Valid() {
		return fmt.Errorf("proto: inconsistent held summary (%dx%d chunks/tiles)", h.NumChunks, h.NumTiles)
	}
	body := make([]byte, 0, 10+len(r.VideoID)+len(h.Primary)+len(h.MaskTile)+len(h.MaskFull))
	body = append(body, r.Version, byte(len(r.VideoID)))
	body = append(body, r.VideoID...)
	var dims [8]byte
	binary.BigEndian.PutUint32(dims[:4], uint32(h.NumChunks))
	binary.BigEndian.PutUint32(dims[4:], uint32(h.NumTiles))
	body = append(body, dims[:]...)
	body = append(body, h.Primary...)
	body = append(body, h.MaskTile...)
	body = append(body, h.MaskFull...)
	if r.Cohort != "" {
		if len(r.Cohort) > 255 {
			return fmt.Errorf("proto: cohort label too long")
		}
		body = append(body, byte(len(r.Cohort)))
		body = append(body, r.Cohort...)
	}
	return writeFrame(w, MsgResume, body)
}

// maxResumeDim bounds the chunk/tile counts a resume may claim, keeping
// the implied bitmap allocations well inside the frame cap.
const maxResumeDim = 1 << 16

func parseResume(body []byte) (Resume, error) {
	if len(body) < 2 {
		return Resume{}, fmt.Errorf("proto: short resume")
	}
	r := Resume{Version: body[0]}
	idLen := int(body[1])
	rest := body[2:]
	if len(rest) < idLen+8 {
		return Resume{}, fmt.Errorf("proto: malformed resume")
	}
	r.VideoID = string(rest[:idLen])
	rest = rest[idLen:]
	chunks := binary.BigEndian.Uint32(rest[:4])
	tiles := binary.BigEndian.Uint32(rest[4:8])
	rest = rest[8:]
	if chunks > maxResumeDim || tiles > maxResumeDim {
		return Resume{}, fmt.Errorf("proto: resume dimensions %dx%d too large", chunks, tiles)
	}
	h := player.HeldSummary{NumChunks: int(chunks), NumTiles: int(tiles)}
	perTile := (h.NumChunks*h.NumTiles + 7) / 8
	perChunk := (h.NumChunks + 7) / 8
	if len(rest) < 2*perTile+perChunk {
		return Resume{}, fmt.Errorf("proto: resume bitmap length %d, want %d", len(rest), 2*perTile+perChunk)
	}
	h.Primary = rest[:perTile]
	h.MaskTile = rest[perTile : 2*perTile]
	h.MaskFull = rest[2*perTile : 2*perTile+perChunk]
	r.Held = h
	rest = rest[2*perTile+perChunk:]
	if len(rest) > 0 { // optional cohort trailer
		if len(rest) != 1+int(rest[0]) {
			return Resume{}, fmt.Errorf("proto: malformed resume cohort")
		}
		r.Cohort = string(rest[1:])
	}
	return r, nil
}

// WritePing sends an idle-link heartbeat (or, as a connection's first
// message, a health probe).
func WritePing(w io.Writer) error { return writeFrame(w, MsgPing, nil) }

// WritePong sends a MsgPing carrying probe status.
func WritePong(w io.Writer, p Pong) error {
	body := make([]byte, pongWireSize)
	if p.Draining {
		body[0] = 1
	}
	binary.BigEndian.PutUint32(body[1:], p.ActiveConns)
	return writeFrame(w, MsgPing, body)
}

// WriteBye sends an orderly-shutdown frame.
func WriteBye(w io.Writer) error { return writeFrame(w, MsgBye, nil) }

// WriteError sends a fatal error description.
func WriteError(w io.Writer, text string) error {
	return writeFrame(w, MsgError, []byte(text))
}

// Message is the decoded form of any frame: exactly one field is set.
// (Ping is set only for status pongs; a plain heartbeat MsgPing sets none.)
type Message struct {
	Type     MsgType
	Hello    *Hello
	Manifest *video.Manifest
	Request  *Request
	TileData *TileData
	Resume   *Resume
	Ping     *Pong
	Error    string
}

// ReadMessage reads and decodes the next frame. The frame body is freshly
// allocated, so the returned message owns its memory; loops on the tile
// hot path should prefer ReadMessageBuf.
func ReadMessage(r io.Reader) (*Message, error) {
	t, body, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	return decodeMessage(t, body)
}

// ReadMessageBuf reads and decodes the next frame like ReadMessage, but
// reads the frame into buf (growing it as needed) instead of a fresh
// allocation, and returns the buffer to pass to the next call.
//
// Ownership contract: the returned Message aliases the returned buffer —
// TileData.Payload and the Resume.Held bitmaps point directly into it — so
// the message and anything it references are valid only until
// the buffer is passed to ReadMessageBuf again. A buffer belongs to exactly
// one reader loop; never share one across connections or goroutines.
// Callers that retain body-derived state across frames (the resume
// handshake's held summary) must use ReadMessage or copy first.
//
// This is the pooled-read fix for the tile hot path: a steady-state frame
// read costs two fixed-size allocations (the Message and the payload
// descriptor; TestReadMessageBufAllocs) instead of re-allocating the body
// (~147 KB/op for a typical tile frame, the pre-fix BenchmarkFrameReadCRC
// figure).
func ReadMessageBuf(r io.Reader, buf []byte) (*Message, []byte, error) {
	t, body, buf, err := readFrameInto(r, buf, true)
	if err != nil {
		return nil, buf, err
	}
	msg, err := decodeMessage(t, body)
	return msg, buf, err
}

// decodeMessage parses one de-framed message body. The result may alias
// body; readers reusing body buffers own the aliasing contract.
func decodeMessage(t MsgType, body []byte) (*Message, error) {
	msg := &Message{Type: t}
	switch t {
	case MsgHello:
		h, err := parseHello(body)
		if err != nil {
			return nil, err
		}
		msg.Hello = &h
	case MsgManifest:
		m, err := video.DecodeManifest(body)
		if err != nil {
			return nil, err
		}
		msg.Manifest = m
	case MsgRequest:
		req, err := parseRequest(body)
		if err != nil {
			return nil, err
		}
		msg.Request = &req
	case MsgTileData:
		td, err := parseTileData(body)
		if err != nil {
			return nil, err
		}
		msg.TileData = &td
	case MsgResume:
		r, err := parseResume(body)
		if err != nil {
			return nil, err
		}
		msg.Resume = &r
	case MsgBye:
	case MsgPing:
		// A status pong carries a body; heartbeats are empty. Unknown
		// (longer) bodies still decode the known prefix, so the pong can
		// grow fields without breaking old readers.
		if len(body) >= pongWireSize {
			msg.Ping = &Pong{
				Draining:    body[0] == 1,
				ActiveConns: binary.BigEndian.Uint32(body[1:5]),
			}
		}
	case MsgError:
		msg.Error = string(body)
	default:
		return nil, fmt.Errorf("proto: unknown message type %d", t)
	}
	return msg, nil
}
