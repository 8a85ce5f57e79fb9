// Package study simulates the paper's IRB user study (§4.5): 26
// participants each watch 5 videos streamed by Dragonfly (tiled masking,
// the user-study configuration), Flare and Pano over emulated bandwidth,
// and rate each session 1-5.
//
// Human raters cannot be reproduced in software; instead a psychometric
// opinion model maps the objective session metrics to ratings. The model is
// monotone in exactly the factors participants' qualitative feedback cites
// — perceptual quality, blank screens, and reactivity (rebuffering) — with
// per-user bias and per-session noise, so *relative* orderings between
// systems are preserved (see DESIGN.md §3, Substitutions).
package study

import (
	"fmt"
	"math"
	"math/rand"

	"dragonfly/internal/baseline"
	"dragonfly/internal/core"
	"dragonfly/internal/player"
	"dragonfly/internal/quality"
	"dragonfly/internal/sim"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// Level3 grades a qualitative feedback dimension.
type Level3 int

// Grades for each feedback dimension (Fig 17): for blankness, None/Some/
// Many; for reactivity, Fast/Medium/Slow; for quality, High/Medium/Low.
const (
	LevelGood Level3 = iota // no blanks / fast / high quality
	LevelMid
	LevelBad // many blanks / slow / low quality
)

// Feedback is the categorized qualitative comment of one session (§4.5).
type Feedback struct {
	Blankness  Level3
	Reactivity Level3
	Quality    Level3
}

// SessionRecord is one (participant, video, system) viewing.
type SessionRecord struct {
	User    int
	VideoID string
	Scheme  string
	TraceID string

	Metrics  *player.Metrics
	MOS      float64 // continuous opinion before quantization
	Rating   int     // 1..5
	Feedback Feedback
}

// Config parameterizes the study.
type Config struct {
	NumUsers int                     // paper: 26
	Videos   []*video.Manifest       // paper: 5 (two of the seven withheld)
	Traces   []*trace.BandwidthTrace // paper: 5 Belgian traces
	Seed     int64
}

// Results holds every session of the study.
type Results struct {
	Sessions []SessionRecord
	// Heads are the participants' head traces (indexed by user), used by
	// the Fig 16 displacement comparison.
	Heads []*trace.HeadTrace
}

// studySchemes are the three systems of the study, keyed by the name its
// records carry; Dragonfly uses the tiled masking strategy as in §4.5.
var studySchemes = []sim.Keyed{
	{Key: "Dragonfly", Factory: func() player.Scheme { return core.New(core.Options{Masking: core.MaskTiled, Name: "Dragonfly"}) }},
	{Key: "Flare", Factory: func() player.Scheme { return baseline.NewFlare(baseline.FlareOptions{}) }},
	{Key: "Pano", Factory: func() player.Scheme { return baseline.NewPano(baseline.PanoOptions{}) }},
}

// Run executes the study: every participant views every video once per
// system, with a per-(user, video) randomly assigned bandwidth trace.
func Run(cfg Config) (*Results, error) {
	if cfg.NumUsers <= 0 {
		cfg.NumUsers = 26
	}
	if len(cfg.Videos) == 0 || len(cfg.Traces) == 0 {
		return nil, fmt.Errorf("study: config requires videos and traces")
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	// Per-user rater profile and head trace.
	bias := make([]float64, cfg.NumUsers)
	heads := make([]*trace.HeadTrace, cfg.NumUsers)
	for u := 0; u < cfg.NumUsers; u++ {
		bias[u] = rng.NormFloat64() * 0.35
		heads[u] = trace.GenerateHead(trace.HeadGenParams{
			UserID: fmt.Sprintf("p%d", u+1),
			Class:  trace.MotionClass(u % 3),
			Seed:   cfg.Seed + int64(100+u),
		})
	}

	type job struct {
		user   int
		video  *video.Manifest
		scheme sim.Keyed
		tr     *trace.BandwidthTrace
		noise  float64
	}
	var jobs []job
	for u := 0; u < cfg.NumUsers; u++ {
		for _, v := range cfg.Videos {
			tr := cfg.Traces[rng.Intn(len(cfg.Traces))]
			for _, s := range studySchemes {
				jobs = append(jobs, job{user: u, video: v, scheme: s, tr: tr,
					noise: rng.NormFloat64() * 0.3})
			}
		}
	}

	records := make([]SessionRecord, len(jobs))
	_, err := sim.Pool(cfg.Videos, quality.PSNR, 0, len(jobs), 1, func(i int) error {
		j := jobs[i]
		met, err := player.Run(player.Config{
			Manifest:  j.video,
			Head:      heads[j.user],
			Bandwidth: j.tr,
			Scheme:    j.scheme.Factory(),
		})
		if err != nil {
			return err
		}
		mos := MOS(met) + bias[j.user] + j.noise
		records[i] = SessionRecord{
			User:     j.user,
			VideoID:  j.video.VideoID,
			Scheme:   j.scheme.Key,
			TraceID:  j.tr.ID,
			Metrics:  met,
			MOS:      mos,
			Rating:   clampRating(mos),
			Feedback: Classify(met),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Results{Sessions: records, Heads: heads}, nil
}

// MOS maps objective session metrics to a continuous opinion score. The
// shape follows standard QoE models (e.g. ITU-T P.1203): a saturating map
// from perceptual quality, with super-linear penalties for rebuffering and
// blank regions — the three factors the study's qualitative feedback
// categorizes.
func MOS(m *player.Metrics) float64 {
	// Quality term: mean viewport score in dB -> 1..5 (saturating).
	q := m.MeanScore()
	base := 1 + 4/(1+math.Exp(-(q-38.5)/3.2))

	// Rebuffering penalty: each percent of stall time costs dearly, as does
	// every discrete interruption (users hate freezes during interaction).
	rebufPct := 100 * m.RebufferRatio()
	stallPerMin := float64(m.StallEvents)
	if m.WallDuration > 0 {
		stallPerMin = float64(m.StallEvents) / m.WallDuration.Minutes()
	}
	penalty := 0.45*rebufPct + 0.12*stallPerMin

	// Blank-area penalty: holes in the viewport are jarring.
	penalty += 25 * m.MeanBlankArea()

	// Masked (low-quality) regions are mildly annoying.
	penalty += 2.5 * m.MaskingShare()

	// Reactivity penalty: the share of clearly degraded frames. This is
	// what participants describe as a system being "slow to update" — the
	// viewport staying pixelated after a head turn (Pano's stale per-chunk
	// upgrades, Flare's post-stall low-quality refetches).
	penalty += 3.5 * dipFraction(m.FrameScore, 40)

	s := base - penalty
	if s < 1 {
		s = 1
	}
	if s > 5 {
		s = 5
	}
	return s
}

// dipFraction is the fraction of frames whose quality falls below the
// threshold (dB).
func dipFraction(scores []float64, threshold float64) float64 {
	if len(scores) == 0 {
		return 0
	}
	n := 0
	for _, v := range scores {
		if v < threshold {
			n++
		}
	}
	return float64(n) / float64(len(scores))
}

func clampRating(mos float64) int {
	r := int(math.Round(mos))
	if r < 1 {
		r = 1
	}
	if r > 5 {
		r = 5
	}
	return r
}

// Classify derives the qualitative-feedback categories of Fig 17 from the
// session metrics.
func Classify(m *player.Metrics) Feedback {
	var f Feedback

	// Blankness: skip schemes blank when tiles are missing; stall schemes
	// effectively blank/freeze during rebuffering (§4.5).
	blankSignal := m.MeanBlankArea()*20 + m.RebufferRatio()*12 + m.MaskingShare()*1.5
	switch {
	case blankSignal < 0.05:
		f.Blankness = LevelGood
	case blankSignal < 0.35:
		f.Blankness = LevelMid
	default:
		f.Blankness = LevelBad
	}

	// Reactivity: how quickly the view recovers after movement. Stalls and
	// long startup read as sluggish; skip-based playback reads as fast.
	reactSignal := m.RebufferRatio()*30 + float64(m.StallEvents)*0.25 + m.StartupDelay.Seconds()*0.08
	switch {
	case reactSignal < 0.3:
		f.Reactivity = LevelGood
	case reactSignal < 1.1:
		f.Reactivity = LevelMid
	default:
		f.Reactivity = LevelBad
	}

	// Perceptual quality from the mean viewport score.
	switch {
	case m.MeanScore() >= 41:
		f.Quality = LevelGood
	case m.MeanScore() >= 35:
		f.Quality = LevelMid
	default:
		f.Quality = LevelBad
	}
	return f
}

// ByScheme groups session records per system.
func (r *Results) ByScheme() map[string][]SessionRecord {
	out := map[string][]SessionRecord{}
	for _, s := range r.Sessions {
		out[s.Scheme] = append(out[s.Scheme], s)
	}
	return out
}

// FractionRatedAtLeast returns the share of a scheme's sessions rated >= k.
func FractionRatedAtLeast(records []SessionRecord, k int) float64 {
	if len(records) == 0 {
		return 0
	}
	n := 0
	for _, s := range records {
		if s.Rating >= k {
			n++
		}
	}
	return float64(n) / float64(len(records))
}

// MOSPerVideo returns mean opinion score per video for a scheme's records.
func MOSPerVideo(records []SessionRecord) map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, s := range records {
		sums[s.VideoID] += float64(s.Rating)
		counts[s.VideoID]++
	}
	out := map[string]float64{}
	for v, sum := range sums {
		out[v] = sum / float64(counts[v])
	}
	return out
}

// DefaultStudyVideos returns the five study videos: the paper withheld two
// of the seven emulation videos, including the highest-bitrate one (§4.5).
func DefaultStudyVideos(all []*video.Manifest) []*video.Manifest {
	var out []*video.Manifest
	for _, v := range all {
		if v.VideoID == "v27" || v.VideoID == "v28" {
			continue
		}
		out = append(out, v)
	}
	if len(out) > 5 {
		out = out[:5]
	}
	return out
}
