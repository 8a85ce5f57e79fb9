package store

import (
	"dragonfly/internal/player"
	"dragonfly/internal/proto"
)

// WireSize returns the full on-the-wire size of the item's frame (payload
// plus proto.TileFrameOverhead), or 0 for items the store cannot serve.
func (s *Store) WireSize(it player.RequestItem) int64 {
	_, size, ok := s.locate(it)
	if !ok {
		return 0
	}
	return int64(proto.TileFrameOverhead) + size
}

// NumFrames reports how many pre-framed wire frames the store holds.
func (s *Store) NumFrames() int { return len(s.heads) / proto.TileHeadSize }
