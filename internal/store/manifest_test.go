package store

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"dragonfly/internal/proto"
	"dragonfly/internal/video"
)

// writeManifest is the oracle: the frame proto.WriteManifest writes.
func writeManifest(t *testing.T, m *video.Manifest) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := proto.WriteManifest(&b, m); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// withoutChecksums returns m as decoded from its JSON with both checksum
// arrays removed: a manifest from a tier that predates them.
func withoutChecksums(t *testing.T, m *video.Manifest) *video.Manifest {
	t.Helper()
	raw, err := m.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	var j map[string]json.RawMessage
	if err := json.Unmarshal(raw, &j); err != nil {
		t.Fatal(err)
	}
	delete(j, "checksums")
	delete(j, "full360_checksums")
	if raw, err = json.Marshal(j); err != nil {
		t.Fatal(err)
	}
	out, err := video.DecodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if out.HasChecksums() {
		t.Fatal("manifest still carries checksums")
	}
	return out
}

// TestManifestFrameMatchesWriteManifest: the frame a store serves is byte
// for byte proto.WriteManifest's, for the seven Table 3 videos at 60
// chunks, a manifest without checksums, and a video id json.Marshal
// escapes (the encoder's encoding/json path).
func TestManifestFrameMatchesWriteManifest(t *testing.T) {
	ms := video.Dataset(0)
	small := video.Generate(video.GenParams{ID: "frame", Rows: 2, Cols: 3, NumChunks: 4, Seed: 5})
	ms = append(ms, withoutChecksums(t, small),
		video.Generate(video.GenParams{ID: `v<8>&"q"`, Rows: 2, Cols: 3, NumChunks: 4, Seed: 5}))
	for _, m := range ms {
		got, err := New(m).ManifestFrame()
		if err != nil {
			t.Fatalf("%s: %v", m.VideoID, err)
		}
		if want := writeManifest(t, m); !bytes.Equal(got, want) {
			t.Fatalf("%s: manifest frame of %d bytes differs from WriteManifest's %d", m.VideoID, len(got), len(want))
		}
	}
}

// TestManifestFrameHeldOnlyWhileReferenced: the store keeps the frame while
// a caller holds it, and nothing once none does — two collections later its
// weak pointer is empty — and the next caller is served the same bytes from
// a fresh encode.
func TestManifestFrameHeldOnlyWhileReferenced(t *testing.T) {
	s := New(testManifest(t))
	held, err := s.ManifestFrame()
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(held)
	runtime.GC()
	runtime.GC()
	if again, _ := s.ManifestFrame(); &again[0] != &held[0] {
		t.Fatal("the store dropped a frame a caller still holds")
	}
	runtime.KeepAlive(held)
	held = nil
	runtime.GC()
	runtime.GC()
	if s.HoldsManifestFrame() {
		t.Fatal("the store still holds the manifest frame after every holder let go")
	}
	if again, err := s.ManifestFrame(); err != nil || !bytes.Equal(again, want) {
		t.Fatalf("re-encoded frame differs (%v)", err)
	}
}
