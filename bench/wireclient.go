package bench

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"dragonfly/internal/player"
	"dragonfly/internal/proto"
	"dragonfly/internal/video"
)

// opDeadline bounds how long one op may wait for the server: a tile that
// never comes becomes a failed op, not a hang.
var opDeadline = 20 * time.Second

// itemSet is a set of tile variants at the granularity of the server's
// redundancy suppression: one primary per (chunk, tile) whatever its quality,
// one tiled masking per (chunk, tile), one full-360° masking per chunk. Each
// entry is an int32 so the set can also hold a stamp (the round an item was
// last listed in).
type itemSet struct {
	tiles    int
	primary  []int32
	maskTile []int32
	maskFull []int32
	n        int
}

func newItemSet(m *video.Manifest) *itemSet {
	t := m.NumTiles()
	return &itemSet{
		tiles:    t,
		primary:  make([]int32, m.NumChunks*t),
		maskTile: make([]int32, m.NumChunks*t),
		maskFull: make([]int32, m.NumChunks),
	}
}

// slot returns the entry of an item, or nil when the item lies outside the
// manifest.
func (s *itemSet) slot(it player.RequestItem) *int32 {
	if it.Chunk < 0 || it.Chunk >= len(s.maskFull) {
		return nil
	}
	if it.Full360 {
		if it.Stream != player.Masking {
			return nil
		}
		return &s.maskFull[it.Chunk]
	}
	if int(it.Tile) < 0 || int(it.Tile) >= s.tiles {
		return nil
	}
	idx := it.Chunk*s.tiles + int(it.Tile)
	if it.Stream == player.Primary {
		return &s.primary[idx]
	}
	return &s.maskTile[idx]
}

func (s *itemSet) get(it player.RequestItem) int32 {
	if p := s.slot(it); p != nil {
		return *p
	}
	return 0
}

// put stores a non-zero stamp and reports whether the entry was empty.
func (s *itemSet) put(it player.RequestItem, stamp int32) bool {
	p := s.slot(it)
	if p == nil {
		return false
	}
	fresh := *p == 0
	if fresh {
		s.n++
	}
	*p = stamp
	return fresh
}

// covered reports whether the server will never (again) send the item: it is
// held, or it is a masking tile whose chunk's full-360° masking is held. The
// driver must never wait on a covered item.
func (s *itemSet) covered(it player.RequestItem) bool {
	if s.get(it) != 0 {
		return true
	}
	return it.Stream == player.Masking && !it.Full360 &&
		it.Chunk >= 0 && it.Chunk < len(s.maskFull) && s.maskFull[it.Chunk] != 0
}

// wireConn is one client session of a wire workload: the connection, the
// reusable frame buffer, what the client holds, and the reference manifest
// payloads are verified against.
type wireConn struct {
	c       net.Conn
	buf     []byte
	m       *video.Manifest
	held    *itemSet
	rec     *recorder
	session int64
	root    int // the session's root span
}

// dialSession opens a session: dial, Hello, read the manifest. ref is the
// driver's own copy of the manifest; the one the server sends is decoded (its
// cost is part of every session start) and checked against ref's shape.
func dialSession(addr, videoID string, ref *video.Manifest, rec *recorder, session int64) (*wireConn, error) {
	tr := rec.tr
	t0 := time.Now()
	root := tr.begin("driver.session", -1, session)
	hs := tr.begin("server.handshake", root, session)

	sp := tr.begin("net.dial", hs, session)
	c, err := net.DialTimeout("tcp", addr, opDeadline)
	tr.end(sp)
	if err != nil {
		tr.end(root)
		return nil, fmt.Errorf("dial: %w", err)
	}
	wc := &wireConn{c: c, m: ref, held: newItemSet(ref), rec: rec, session: session, root: root}
	fail := func(err error) (*wireConn, error) {
		wc.abort()
		return nil, err
	}
	if err := c.SetDeadline(time.Now().Add(opDeadline)); err != nil {
		return fail(err)
	}
	sp = tr.begin("proto.write_hello", hs, session)
	err = proto.WriteHello(c, proto.Hello{VideoID: videoID})
	tr.end(sp)
	if err != nil {
		return fail(fmt.Errorf("hello: %w", err))
	}
	sp = tr.begin("proto.read_manifest", hs, session)
	msg, err := proto.ReadMessage(c)
	tr.end(sp)
	tr.end(hs)
	if err != nil {
		return fail(fmt.Errorf("read manifest: %w", err))
	}
	if msg.Type != proto.MsgManifest {
		return fail(fmt.Errorf("handshake: got message type %d (%s), want the manifest", msg.Type, msg.Error))
	}
	if got := msg.Manifest; got.VideoID != ref.VideoID || got.NumChunks != ref.NumChunks || got.NumTiles() != ref.NumTiles() {
		return fail(fmt.Errorf("handshake: manifest %s %dx%d, want %s %dx%d",
			got.VideoID, got.NumChunks, got.NumTiles(), ref.VideoID, ref.NumChunks, ref.NumTiles()))
	}
	rec.handshakes = append(rec.handshakes, time.Since(t0))
	return wc, nil
}

// request writes one fetch list under the op's span.
func (wc *wireConn) request(gen uint32, items []player.RequestItem, op int) error {
	tr := wc.rec.tr
	if err := wc.c.SetDeadline(time.Now().Add(opDeadline)); err != nil {
		return err
	}
	sp := tr.begin("proto.write_request", op, wc.session)
	err := proto.WriteRequest(wc.c, proto.Request{Generation: gen, Items: items})
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("write request: %w", err)
	}
	return nil
}

// errVerify marks a tile that arrived but must not count as held: wrong
// size, wrong checksum, outside the manifest, or a duplicate. The session
// goes on; the op it arrived in is failed.
var errVerify = errors.New("tile verification failed")

// errDuplicate is the errVerify for a tile that is already held. Unlike the
// others it is an extra frame, not a lost one: the tile the driver waits for
// is still to come (or already here).
var errDuplicate = fmt.Errorf("%w: delivered twice", errVerify)

// readGroups are the folded spans frame reads and checksums of one op (or one
// drain) are recorded under.
type readGroups struct{ read, sum int }

func (wc *wireConn) groups(parent int) readGroups {
	tr := wc.rec.tr
	return readGroups{
		read: tr.group("proto.read_frame", parent, wc.session),
		sum:  tr.group("proto.payload_checksum", parent, wc.session),
	}
}

// readTile reads frames up to the next tile (heartbeats are skipped), verifies
// it against the reference manifest and marks it held. A frame-level failure
// (CRC trailer, closed connection, deadline) is returned as is and ends the
// session; a tile-level failure wraps errVerify.
func (wc *wireConn) readTile(g readGroups) (player.RequestItem, error) {
	tr := wc.rec.tr
	for {
		t0 := tr.now()
		msg, buf, err := proto.ReadMessageBuf(wc.c, wc.buf)
		tr.call(g.read, t0)
		wc.buf = buf
		if err != nil {
			return player.RequestItem{}, fmt.Errorf("read frame: %w", err)
		}
		switch msg.Type {
		case proto.MsgPing:
			continue
		case proto.MsgTileData:
		case proto.MsgError:
			return player.RequestItem{}, fmt.Errorf("server error: %s", msg.Error)
		default:
			return player.RequestItem{}, fmt.Errorf("unexpected message type %d", msg.Type)
		}
		it, payload := msg.TileData.Item, msg.TileData.Payload
		wc.rec.tiles++
		wc.rec.bytes += int64(len(payload))
		if wc.held.slot(it) == nil || !it.Quality.Valid() {
			return it, fmt.Errorf("%w: item %+v outside the manifest", errVerify, it)
		}
		if want := it.Size(wc.m); int64(len(payload)) != want {
			return it, fmt.Errorf("%w: item %+v has %d payload bytes, want %d", errVerify, it, len(payload), want)
		}
		t0 = tr.now()
		got := proto.PayloadChecksum(payload)
		tr.call(g.sum, t0)
		if want, ok := it.Checksum(wc.m); !ok || got != want {
			return it, fmt.Errorf("%w: item %+v payload checksum %08x, want %08x", errVerify, it, got, want)
		}
		if !wc.held.put(it, 1) {
			return it, fmt.Errorf("%w: item %+v", errDuplicate, it)
		}
		return it, nil
	}
}

// bye ends the session in order: Bye, then read until the server's Bye or
// EOF, so the server side has finished (and its counters are final) before
// the unit returns. A tile arriving after our Bye is an error: every wire
// workload drains what it asked for first.
func (wc *wireConn) bye() error {
	tr := wc.rec.tr
	sp := tr.begin("proto.bye", wc.root, wc.session)
	defer func() {
		tr.end(sp)
		tr.end(wc.root)
	}()
	defer wc.c.Close()
	if err := wc.c.SetDeadline(time.Now().Add(opDeadline)); err != nil {
		return err
	}
	if err := proto.WriteBye(wc.c); err != nil {
		return fmt.Errorf("write bye: %w", err)
	}
	for {
		msg, buf, err := proto.ReadMessageBuf(wc.c, wc.buf)
		wc.buf = buf
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil
			}
			return fmt.Errorf("after bye: %w", err)
		}
		switch msg.Type {
		case proto.MsgBye:
			return nil
		case proto.MsgPing:
		default:
			return fmt.Errorf("after bye: unexpected message type %d", msg.Type)
		}
	}
}

// abort closes a session that failed part-way and closes its open spans.
func (wc *wireConn) abort() {
	wc.c.Close()
	wc.rec.tr.end(wc.root)
}
