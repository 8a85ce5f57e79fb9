package study

import (
	"testing"
	"time"

	"dragonfly/internal/player"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

func studyVideos() []*video.Manifest {
	return []*video.Manifest{
		video.Generate(video.GenParams{ID: "sv1", Rows: 6, Cols: 6, NumChunks: 5,
			TargetQP42Mbps: 1, TargetQP22Mbps: 9, Seed: 61}),
		video.Generate(video.GenParams{ID: "sv2", Rows: 6, Cols: 6, NumChunks: 5,
			TargetQP42Mbps: 2, TargetQP22Mbps: 18, Seed: 62}),
	}
}

func studyTraces() []*trace.BandwidthTrace {
	return []*trace.BandwidthTrace{
		{ID: "t1", SamplePeriod: time.Second, Mbps: []float64{8}},
		{ID: "t2", SamplePeriod: time.Second, Mbps: []float64{14}},
	}
}

func TestRunStudyShape(t *testing.T) {
	res, err := Run(Config{NumUsers: 4, Videos: studyVideos(), Traces: studyTraces(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 4 users x 2 videos x 3 systems.
	if len(res.Sessions) != 24 {
		t.Fatalf("got %d sessions", len(res.Sessions))
	}
	if len(res.Heads) != 4 {
		t.Fatalf("got %d heads", len(res.Heads))
	}
	schemes := map[string]int{}
	for _, s := range res.Sessions {
		schemes[s.Scheme]++
		if s.Rating < 1 || s.Rating > 5 {
			t.Fatalf("rating %d out of range", s.Rating)
		}
		if s.Metrics == nil || s.Metrics.TotalFrames == 0 {
			t.Fatalf("session %s/%s has no playback", s.Scheme, s.VideoID)
		}
	}
	for _, name := range []string{"Dragonfly", "Flare", "Pano"} {
		if schemes[name] != 8 {
			t.Errorf("%s has %d sessions, want 8", name, schemes[name])
		}
	}
}

func TestRunStudyDeterministic(t *testing.T) {
	cfg := Config{NumUsers: 2, Videos: studyVideos()[:1], Traces: studyTraces(), Seed: 9}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Sessions {
		if a.Sessions[i].Rating != b.Sessions[i].Rating || a.Sessions[i].TraceID != b.Sessions[i].TraceID {
			t.Fatal("study not deterministic")
		}
	}
}

func TestRunStudyValidation(t *testing.T) {
	if _, err := Run(Config{NumUsers: 2}); err == nil {
		t.Error("empty study config accepted")
	}
}

func TestMOSMonotonicity(t *testing.T) {
	base := &player.Metrics{
		FrameScore:   []float64{45, 45, 45},
		TotalFrames:  3,
		PlayDuration: time.Minute,
		WallDuration: time.Minute,
	}
	good := opinionScore(base)
	if good < 4 {
		t.Errorf("high-quality clean session MOS = %.2f, want >= 4", good)
	}

	rebuf := *base
	rebuf.RebufferDuration = 3 * time.Second
	rebuf.StallEvents = 5
	if opinionScore(&rebuf) >= good {
		t.Error("rebuffering did not lower MOS")
	}

	blank := *base
	blank.FrameBlank = []float64{0.2, 0.2, 0.2}
	if opinionScore(&blank) >= good {
		t.Error("blank area did not lower MOS")
	}

	lowQ := *base
	lowQ.FrameScore = []float64{30, 30, 30}
	if opinionScore(&lowQ) >= good {
		t.Error("low quality did not lower MOS")
	}
	if opinionScore(&lowQ) > 2.5 {
		t.Errorf("30 dB session MOS = %.2f, want <= 2.5", opinionScore(&lowQ))
	}

	masked := *base
	masked.RenderedMasking = 50
	masked.RenderedPrimaryByQuality[video.Highest] = 50
	if opinionScore(&masked) >= good {
		t.Error("masked tiles did not lower MOS")
	}
}

func TestMOSBounds(t *testing.T) {
	horrible := &player.Metrics{
		FrameScore:       []float64{10},
		FrameBlank:       []float64{1},
		TotalFrames:      1,
		RebufferDuration: time.Minute,
		PlayDuration:     time.Second,
		WallDuration:     time.Minute,
		StallEvents:      100,
	}
	if got := opinionScore(horrible); got != 1 {
		t.Errorf("worst-case MOS = %v, want 1", got)
	}
	perfect := &player.Metrics{
		FrameScore:   []float64{60},
		TotalFrames:  1,
		PlayDuration: time.Minute,
		WallDuration: time.Minute,
	}
	if got := opinionScore(perfect); got < 4.5 || got > 5 {
		t.Errorf("best-case MOS = %v", got)
	}
}

func TestClassify(t *testing.T) {
	clean := &player.Metrics{FrameScore: []float64{46}, TotalFrames: 1, PlayDuration: time.Minute}
	f := classify(clean)
	if f.Blankness != LevelGood || f.Reactivity != LevelGood || f.Quality != LevelGood {
		t.Errorf("clean session classified %+v", f)
	}

	stally := &player.Metrics{
		FrameScore: []float64{36}, TotalFrames: 1,
		RebufferDuration: 6 * time.Second, PlayDuration: time.Minute,
		WallDuration: 66 * time.Second, StallEvents: 8,
	}
	f = classify(stally)
	if f.Reactivity != LevelBad {
		t.Errorf("stally session reactivity = %v, want bad", f.Reactivity)
	}
	if f.Blankness == LevelGood {
		t.Error("stally session should report blanks (frozen viewports)")
	}

	blanky := &player.Metrics{
		FrameScore: []float64{30}, FrameBlank: []float64{0.15},
		TotalFrames: 1, PlayDuration: time.Minute,
	}
	f = classify(blanky)
	if f.Blankness == LevelGood || f.Quality != LevelBad {
		t.Errorf("blanky session classified %+v", f)
	}
}

func TestHelpers(t *testing.T) {
	records := []SessionRecord{
		{Scheme: "A", Rating: 5, VideoID: "v"},
		{Scheme: "A", Rating: 3, VideoID: "v"},
		{Scheme: "B", Rating: 4, VideoID: "v"},
	}
	r := &Results{Sessions: records}
	by := r.ByScheme()
	if len(by["A"]) != 2 || len(by["B"]) != 1 {
		t.Error("ByScheme grouping wrong")
	}
	if got := FractionRatedAtLeast(by["A"], 4); got != 0.5 {
		t.Errorf("FractionRatedAtLeast = %v", got)
	}
	if got := FractionRatedAtLeast(nil, 4); got != 0 {
		t.Error("empty fraction")
	}
	mos := MOSPerVideo(by["A"])
	if mos["v"] != 4 {
		t.Errorf("MOSPerVideo = %v", mos)
	}
}

func TestDefaultStudyVideos(t *testing.T) {
	all := video.Dataset(0)
	got := DefaultStudyVideos(all)
	if len(got) != 5 {
		t.Fatalf("got %d study videos", len(got))
	}
	for _, v := range got {
		if v.VideoID == "v27" || v.VideoID == "v28" {
			t.Errorf("withheld video %s included", v.VideoID)
		}
	}
}

func TestMOSReactivityDipPenalty(t *testing.T) {
	// Two sessions with the same mean quality: one steady, one oscillating
	// between crisp and degraded frames (the "slow to update" experience).
	steady := &player.Metrics{
		FrameScore:   []float64{44, 44, 44, 44},
		TotalFrames:  4,
		PlayDuration: time.Minute,
		WallDuration: time.Minute,
	}
	choppy := &player.Metrics{
		FrameScore:   []float64{52, 36, 52, 36},
		TotalFrames:  4,
		PlayDuration: time.Minute,
		WallDuration: time.Minute,
	}
	if opinionScore(choppy) >= opinionScore(steady) {
		t.Errorf("choppy quality should rate below steady: %.2f vs %.2f",
			opinionScore(choppy), opinionScore(steady))
	}
}
