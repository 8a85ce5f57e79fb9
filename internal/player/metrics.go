package player

import (
	"sort"
	"time"

	"dragonfly/internal/stats"
	"dragonfly/internal/video"
)

// StallInterval is one rebuffering event in session wall time.
type StallInterval struct {
	Start, End time.Duration
}

// Metrics aggregates everything paper §4.1 reports about one session.
type Metrics struct {
	SchemeName string
	VideoID    string
	UserID     string
	TraceID    string

	// FrameScore is the viewport quality (dB, under the session's metric)
	// of each rendered frame; FrameBlank the blank-area fraction.
	FrameScore []float64
	FrameBlank []float64

	TotalFrames      int // frames actually rendered
	IncompleteFrames int // frames with >= 1 fully blank viewport tile
	// PrimarySkipFrames counts frames where >= 1 viewport tile was rendered
	// from masking (or blank) instead of the primary stream — the Fig 13(a)
	// "viewports with skipped primary tiles".
	PrimarySkipFrames int

	StallEvents      int
	RebufferDuration time.Duration
	StartupDelay     time.Duration
	PlayDuration     time.Duration // video time rendered
	WallDuration     time.Duration
	Truncated        bool // session hit the wall-clock safety cap

	// StallIntervals records each rebuffering event (Fig 5 overlays head
	// movement on these).
	StallIntervals []StallInterval

	// SkipHeat[tile] counts frames where the tile was in the viewport but
	// not rendered from the primary stream; BlankHeat[tile] counts frames
	// where it had no renderable version at all; ViewHeat[tile] counts
	// frames where it was in the viewport (Fig 15's heat map).
	SkipHeat  []int64
	BlankHeat []int64
	ViewHeat  []int64

	BytesReceived int64
	BytesUseful   int64

	// Fault-tolerance accounting (robustness extension): connection losses
	// survived by the reconnecting client, wall time spent disconnected,
	// and dedup entries restored on the server via session resume.
	Disconnects    int
	OutageDuration time.Duration
	ResumedTiles   int64

	// Integrity and admission accounting (wire v3): tile payloads whose
	// manifest checksum failed or that the manifest does not have (dropped,
	// never rendered, refetched via the next decide/resume cycle), frames
	// torn down for a CRC-trailer mismatch, and handshakes the server
	// fast-rejected with a retryable busy error before the client got through.
	CorruptTiles  int64
	CorruptFrames int64
	BusyRejects   int64

	// Rendered viewport-tile counts by source (Fig 13(b)).
	RenderedPrimaryByQuality [video.NumQualities]int64
	RenderedMasking          int64
	RenderedBlank            int64
	// RenderedInterpolated counts tiles synthesized from neighboring
	// masking tiles (the §3.2 interpolation optimization, when enabled).
	RenderedInterpolated int64
}

// RenderedViewportTiles is the total number of (frame, viewport-tile) render
// events.
func (m *Metrics) RenderedViewportTiles() int64 {
	var n int64
	for _, c := range m.RenderedPrimaryByQuality {
		n += c
	}
	return n + m.RenderedMasking + m.RenderedBlank + m.RenderedInterpolated
}

// RebufferRatio is stall time over total session wall time (§4.1).
func (m *Metrics) RebufferRatio() float64 {
	total := m.PlayDuration + m.RebufferDuration
	if total <= 0 {
		return 0
	}
	return m.RebufferDuration.Seconds() / total.Seconds()
}

// IncompleteFramePct is the percentage of rendered viewports with at least
// one missing (blank) tile.
func (m *Metrics) IncompleteFramePct() float64 {
	if m.TotalFrames == 0 {
		return 0
	}
	return 100 * float64(m.IncompleteFrames) / float64(m.TotalFrames)
}

// PrimarySkipFramePct is the percentage of rendered viewports with at least
// one primary-skipped tile (Fig 13a).
func (m *Metrics) PrimarySkipFramePct() float64 {
	if m.TotalFrames == 0 {
		return 0
	}
	return 100 * float64(m.PrimarySkipFrames) / float64(m.TotalFrames)
}

// MedianScore returns the session's median per-frame viewport quality (dB).
func (m *Metrics) MedianScore() float64 {
	return percentileOf(m.FrameScore, 50)
}

// ScorePercentile returns the p-th percentile of per-frame quality.
func (m *Metrics) ScorePercentile(p float64) float64 {
	return percentileOf(m.FrameScore, p)
}

// MeanScore returns the arithmetic mean of per-frame quality in dB (the
// per-frame values are already MSE-domain aggregates across the viewport).
func (m *Metrics) MeanScore() float64 { return stats.Mean(m.FrameScore) }

// MeanBlankArea returns the mean blank-area fraction across frames.
func (m *Metrics) MeanBlankArea() float64 { return stats.Mean(m.FrameBlank) }

// WastagePct is unnecessary bytes over total received bytes (§4.1).
func (m *Metrics) WastagePct() float64 {
	if m.BytesReceived == 0 {
		return 0
	}
	wasted := m.BytesReceived - m.BytesUseful
	return 100 * float64(wasted) / float64(m.BytesReceived)
}

// QualityShare returns the fraction of rendered viewport tiles rendered
// from the primary stream at exactly quality q.
func (m *Metrics) QualityShare(q video.Quality) float64 {
	total := m.RenderedViewportTiles()
	if total == 0 {
		return 0
	}
	return float64(m.RenderedPrimaryByQuality[q]) / float64(total)
}

// MaskingShare returns the fraction of rendered viewport tiles rendered
// from the masking stream.
func (m *Metrics) MaskingShare() float64 {
	total := m.RenderedViewportTiles()
	if total == 0 {
		return 0
	}
	return float64(m.RenderedMasking) / float64(total)
}

// BlankShare returns the fraction of rendered viewport tiles left blank.
func (m *Metrics) BlankShare() float64 {
	total := m.RenderedViewportTiles()
	if total == 0 {
		return 0
	}
	return float64(m.RenderedBlank) / float64(total)
}

func percentileOf(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	idx := int(p / 100 * float64(len(s)-1))
	return s[idx]
}
