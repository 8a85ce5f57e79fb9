package proto

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"dragonfly/internal/player"
)

// heldSummary builds a 3-chunk x 4-tile summary holding primary (0,1) and
// (2,3), masking tile (1,2), and full-360 masking for chunk 0.
func heldSummary() player.HeldSummary {
	h := player.HeldSummary{
		NumChunks: 3, NumTiles: 4,
		Primary:  make([]byte, 2),
		MaskTile: make([]byte, 2),
		MaskFull: make([]byte, 1),
	}
	h.Primary[0] |= 1 << 1  // chunk 0, tile 1
	h.Primary[1] |= 1 << 3  // bit 11: chunk 2, tile 3
	h.MaskTile[0] |= 1 << 6 // bit 6: chunk 1, tile 2
	h.MaskFull[0] |= 1 << 0 // chunk 0
	return h
}

func TestResumeRoundTrip(t *testing.T) {
	h := heldSummary()
	var buf bytes.Buffer
	if err := WriteResume(&buf, Resume{Version: ProtoVersion, VideoID: "v9", Held: h}); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgResume || msg.Resume.Version != ProtoVersion || msg.Resume.VideoID != "v9" {
		t.Fatalf("round trip: %+v", msg)
	}
	got := msg.Resume.Held
	if !got.Valid() || got.NumChunks != 3 || got.NumTiles != 4 {
		t.Fatalf("summary geometry: %+v", got)
	}
	if got.Count() != 4 {
		t.Errorf("Count = %d, want 4", got.Count())
	}
	for _, b := range []struct {
		kind      string
		got, sent []byte
	}{
		{"primary", got.Primary, h.Primary},
		{"masktile", got.MaskTile, h.MaskTile},
		{"full-360", got.MaskFull, h.MaskFull},
	} {
		if !bytes.Equal(b.got, b.sent) {
			t.Errorf("%s bits %08b, sent %08b", b.kind, b.got, b.sent)
		}
	}
}

func TestResumeEmptySummary(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteResume(&buf, Resume{Version: ProtoVersion, VideoID: "v", Held: player.HeldSummary{}}); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMessage(&buf)
	if err != nil || msg.Type != MsgResume {
		t.Fatalf("empty resume: %v %v", msg, err)
	}
	if msg.Resume.Held.Count() != 0 {
		t.Errorf("empty summary counts %d", msg.Resume.Held.Count())
	}
}

func TestResumeRejectsMalformed(t *testing.T) {
	var good bytes.Buffer
	if err := WriteResume(&good, Resume{Version: ProtoVersion, VideoID: "vid", Held: heldSummary()}); err != nil {
		t.Fatal(err)
	}
	frame := good.Bytes()
	corrupt := func(mutate func(b []byte) []byte) []byte {
		b := mutate(append([]byte(nil), frame...))
		binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
		return b
	}
	cases := map[string][]byte{
		"truncated header": frame[:6],
		"short body":       corrupt(func(b []byte) []byte { return b[:6] }),
		"id past end":      corrupt(func(b []byte) []byte { b[6] = 200; return b }),
		"huge dims": corrupt(func(b []byte) []byte {
			// chunks field: after 4B length, 1B type, version, idlen, "vid".
			binary.BigEndian.PutUint32(b[10:14], 1<<20)
			return b
		}),
		"bitmap too short": corrupt(func(b []byte) []byte { return b[:len(b)-1] }),
		"bitmap too long":  corrupt(func(b []byte) []byte { return append(b, 0) }),
	}
	for name, raw := range cases {
		if _, err := ReadMessage(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestResumeWriteRejectsInvalidSummary(t *testing.T) {
	bad := player.HeldSummary{NumChunks: 2, NumTiles: 2} // nil bitmaps
	if err := WriteResume(io.Discard, Resume{Version: ProtoVersion, VideoID: "v", Held: bad}); err == nil {
		t.Error("inconsistent summary accepted")
	}
}

func TestPingRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePing(&buf); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMessage(&buf)
	if err != nil || msg.Type != MsgPing {
		t.Fatalf("ping: %+v %v", msg, err)
	}
}

// TestRequestCountOverflowRejected is the regression test for the
// parseRequest overflow: a frame claiming ~2^32 items must be rejected for
// its count, not sliced with an overflowed length.
func TestRequestCountOverflowRejected(t *testing.T) {
	body := make([]byte, 8+itemWireSize)
	binary.BigEndian.PutUint32(body[4:8], 0xFFFFFFF0)
	var frame bytes.Buffer
	if err := writeFrame(&frame, MsgRequest, body); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(&frame); err == nil {
		t.Error("overflowing item count accepted")
	}
}
