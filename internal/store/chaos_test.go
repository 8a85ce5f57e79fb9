package store

import (
	"bytes"
	"testing"

	"dragonfly/internal/chaos"
	"dragonfly/internal/player"
	"dragonfly/internal/proto"
)

// TestAppendFrameFaultKinds pins the store.frame failpoint semantics. The
// corrupt kind is the interesting one: it must build a frame whose wire CRC
// is VALID but whose payload differs in exactly one byte, so the client's
// manifest checksum — not the link layer — is what catches it. (Wire-CRC
// corruption tears the connection down and triggers a legitimate resend;
// payload corruption is the only kind the zero-duplicate soak can assert
// strict bounds over.)
func TestAppendFrameFaultKinds(t *testing.T) {
	m := testManifest(t)
	s := New(m)
	it := player.RequestItem{Stream: player.Primary, Chunk: 0, Tile: 1, Quality: 1}

	bufs, size, ok := s.AppendFrame(nil, it)
	if !ok {
		t.Fatalf("store cannot serve %+v", it)
	}
	want := flatten(bufs)

	// Error kind: the frame is withheld (the sender skips it, exactly like
	// an out-of-range request) — nothing reaches the wire.
	if err := chaos.Arm(chaos.Rule{Site: "store.frame", Kind: chaos.FaultError, Count: 1}); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	t.Cleanup(chaos.Disarm)
	if b, _, okf := s.AppendFrame(nil, it); okf || len(b) != 0 {
		t.Fatalf("error-faulted AppendFrame served a frame: ok=%v len=%d", okf, len(b))
	}
	// Rule exhausted: back to normal service with untouched shared buffers.
	b, sz, okf := s.AppendFrame(nil, it)
	if !okf || sz != size || !bytes.Equal(flatten(b), want) {
		t.Fatalf("post-fault frame differs from baseline")
	}

	// Corrupt kind: same wire size, parses cleanly (CRC trailer recomputed
	// over the corrupted payload), exactly one payload byte differs.
	if err := chaos.Arm(chaos.Rule{Site: "store.frame", Kind: chaos.FaultCorrupt, Count: 1}); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	cb, csz, cok := s.AppendFrame(nil, it)
	if !cok || csz != size {
		t.Fatalf("corrupt-faulted AppendFrame: ok=%v size=%d want %d", cok, csz, size)
	}
	flat := flatten(cb)
	msg, err := proto.ReadMessage(bytes.NewReader(flat))
	if err != nil {
		t.Fatalf("corrupt frame must stay wire-valid (CRC recomputed), got %v", err)
	}
	if msg.Type != proto.MsgTileData || msg.TileData.Item != it {
		t.Fatalf("corrupt frame decoded to %+v", msg)
	}
	diffs := 0
	for i := range flat {
		if flat[i] != want[i] {
			diffs++
		}
	}
	// The payload flip changes one payload byte and therefore the CRC
	// trailer too (1-4 trailer bytes).
	if diffs < 2 || diffs > 5 {
		t.Fatalf("corrupt frame differs from baseline in %d bytes, want payload byte + CRC", diffs)
	}
	if chaos.Injections("store.frame") == 0 {
		t.Fatalf("no injections recorded")
	}

	// The zero block must be untouched: a fresh append serves the
	// baseline bytes again.
	b2, _, ok2 := s.AppendFrame(nil, it)
	if !ok2 || !bytes.Equal(flatten(b2), want) {
		t.Fatalf("corruption leaked into the shared store")
	}
}
