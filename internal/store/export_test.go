package store

import (
	"sync/atomic"
	"testing"

	"dragonfly/internal/proto"
	"dragonfly/internal/video"
)

// CountManifestEncodes counts the manifest frames every store encodes until
// the test ends. Call it before the sessions it counts start.
func CountManifestEncodes(t testing.TB) *atomic.Int64 {
	var n atomic.Int64
	appendManifestFrame = func(dst []byte, m *video.Manifest) ([]byte, error) {
		n.Add(1)
		return proto.AppendManifestFrame(dst, m)
	}
	t.Cleanup(func() { appendManifestFrame = proto.AppendManifestFrame })
	return &n
}

// HoldsManifestFrame reports whether the store holds a manifest frame.
func (s *Store) HoldsManifestFrame() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frame.Value() != nil
}
