// Package decoder models the client's media-decode stage. The paper's
// client decodes every received tile with ffmpeg/libavcodec through an
// in-memory decoder buffer (§3.3) before the viewport constructor can
// stitch it; on the paper's testbed this stage is provisioned to never be
// the bottleneck ("the client machine has enough computation resources").
// This model makes that assumption explicit and testable: a serial decoder
// with finite throughput delays a tile's render availability, and sweeping
// the throughput shows where decode would start to matter.
package decoder

import (
	"time"
)

// Model is a single-threaded FIFO decoder: tiles decode in delivery order
// at a fixed throughput, each paying a fixed per-tile setup cost (codec
// context initialization, §3.3's avio buffer handling).
type Model struct {
	// ThroughputMBps is the decode rate in megabytes of compressed input
	// per second. Hardware-accelerated decode of QP22 4K tiles runs in the
	// hundreds of MB/s; 0 disables the model (infinite decoder).
	ThroughputMBps float64
	// PerTileOverhead is the fixed setup cost per decoded tile.
	PerTileOverhead time.Duration

	busyUntil time.Duration
}

// DecodeDone returns when a tile delivered at deliveredAt with the given
// compressed size becomes renderable, advancing the decoder's internal
// busy horizon. A nil or disabled model returns deliveredAt unchanged.
func (m *Model) DecodeDone(deliveredAt time.Duration, bytes int64) time.Duration {
	if m == nil || m.ThroughputMBps <= 0 {
		return deliveredAt
	}
	start := deliveredAt
	if m.busyUntil > start {
		start = m.busyUntil
	}
	cost := time.Duration(float64(bytes)/(m.ThroughputMBps*1e6)*float64(time.Second)) + m.PerTileOverhead
	m.busyUntil = start + cost
	return m.busyUntil
}
