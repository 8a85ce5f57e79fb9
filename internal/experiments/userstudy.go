package experiments

import (
	"io"
	"time"

	"dragonfly/internal/stats"
	"dragonfly/internal/study"
)

// StudyOutcome bundles the Figures 14-17 results, all derived from one
// simulated study run.
type StudyOutcome struct {
	Results *study.Results

	// Fig 14a: fraction of sessions rated >= 4 per system.
	RatedAtLeast4 map[string]float64
	// Fig 14b: MOS per video per system, with 95% CI half-widths.
	MOSPerVideo   map[string]map[string]float64
	MOSCIPerVideo map[string]map[string]float64
	// Fig 14c: median PSNR across sessions per system.
	MedianPSNR map[string]float64
	// Fig 15: per-tile skip fraction over Dragonfly sessions.
	SkipHeat           []float64
	HeatRows, HeatCols int
	// Fig 17: feedback shares per system and dimension.
	Feedback map[string]FeedbackShares
}

// FeedbackShares holds the Fig 17 splits for one system.
type FeedbackShares struct {
	BlanksNoneOrFew, BlanksMany float64
	ReactFast, ReactSlow        float64
	QualityHigh, QualityLow     float64
}

// RunUserStudy executes the §4.5 study simulation and prints Figures 14-17.
// numUsers scales the study (26 in the paper).
func RunUserStudy(env *Env, numUsers int, w io.Writer) (*StudyOutcome, error) {
	videos := study.DefaultStudyVideos(env.Videos)
	res, err := study.Run(study.Config{
		NumUsers: numUsers,
		Videos:   videos,
		Traces:   limit(env.Belgian, 5),
		Seed:     42,
	})
	if err != nil {
		return nil, err
	}
	out := &StudyOutcome{
		Results:       res,
		RatedAtLeast4: map[string]float64{},
		MOSPerVideo:   map[string]map[string]float64{},
		MOSCIPerVideo: map[string]map[string]float64{},
		MedianPSNR:    map[string]float64{},
		Feedback:      map[string]FeedbackShares{},
	}
	byScheme := res.ByScheme()
	for name, records := range byScheme {
		out.RatedAtLeast4[name] = study.FractionRatedAtLeast(records, 4)
		out.MOSPerVideo[name] = study.MOSPerVideo(records)
		cis := map[string]float64{}
		perVideoRatings := map[string][]float64{}
		for _, r := range records {
			perVideoRatings[r.VideoID] = append(perVideoRatings[r.VideoID], float64(r.Rating))
		}
		for vid, ratings := range perVideoRatings {
			_, hw := stats.MeanCI95(ratings)
			cis[vid] = hw
		}
		out.MOSCIPerVideo[name] = cis
		var pooled []float64
		for _, r := range records {
			pooled = append(pooled, r.Metrics.FrameScore...)
		}
		out.MedianPSNR[name] = stats.Median(pooled)

		out.Feedback[name] = feedbackShares(records)
	}

	// Fig 15: aggregate Dragonfly unavailability heat (fraction of views
	// where a viewport tile had no renderable version at all).
	if dSessions, ok := byScheme["Dragonfly"]; ok && len(dSessions) > 0 {
		tiles := len(dSessions[0].Metrics.BlankHeat)
		skip := make([]float64, tiles)
		view := make([]float64, tiles)
		for _, r := range dSessions {
			for i := range r.Metrics.BlankHeat {
				skip[i] += float64(r.Metrics.BlankHeat[i])
				view[i] += float64(r.Metrics.ViewHeat[i])
			}
		}
		out.SkipHeat = make([]float64, tiles)
		for i := range skip {
			if view[i] > 0 {
				out.SkipHeat[i] = skip[i] / view[i]
			}
		}
		out.HeatRows = videos[0].Rows
		out.HeatCols = videos[0].Cols
	}

	printStudy(w, out)
	return out, nil
}

// feedbackShares splits one system's sessions by the Fig 17 feedback
// levels.
func feedbackShares(records []study.SessionRecord) FeedbackShares {
	var fs FeedbackShares
	for _, r := range records {
		if r.Feedback.Blankness == study.LevelGood {
			fs.BlanksNoneOrFew++
		}
		if r.Feedback.Blankness == study.LevelBad {
			fs.BlanksMany++
		}
		if r.Feedback.Reactivity == study.LevelGood {
			fs.ReactFast++
		}
		if r.Feedback.Reactivity == study.LevelBad {
			fs.ReactSlow++
		}
		if r.Feedback.Quality == study.LevelGood {
			fs.QualityHigh++
		}
		if r.Feedback.Quality == study.LevelBad {
			fs.QualityLow++
		}
	}
	if n := float64(len(records)); n > 0 {
		fs.BlanksNoneOrFew /= n
		fs.BlanksMany /= n
		fs.ReactFast /= n
		fs.ReactSlow /= n
		fs.QualityHigh /= n
		fs.QualityLow /= n
	}
	return fs
}

func printStudy(w io.Writer, out *StudyOutcome) {
	fprintf(w, "== Figure 14: user study ==\n")
	fprintf(w, "Paper: 65%% of Dragonfly sessions rated >=4, vs 16%% (Pano) and 13%% (Flare);\n")
	fprintf(w, "       Dragonfly's MOS highest for every video; median PSNR +1.7 dB vs Pano, +2.7 vs Flare.\n\n")
	fprintf(w, "(a) sessions rated 4 or 5:\n")
	for _, name := range sortedNames(out.RatedAtLeast4) {
		fprintf(w, "    %-10s %5.1f%%\n", name, 100*out.RatedAtLeast4[name])
	}
	fprintf(w, "(b) MOS per video (with 95%% CI half-widths):\n")
	for _, name := range sortedNames(out.MOSPerVideo) {
		fprintf(w, "    %-10s", name)
		per := out.MOSPerVideo[name]
		for _, vid := range sortedNames(per) {
			fprintf(w, "  %s=%.2f±%.2f", vid, per[vid], out.MOSCIPerVideo[name][vid])
		}
		fprintf(w, "\n")
	}
	fprintf(w, "(c) median viewport PSNR:\n")
	for _, name := range sortedNames(out.MedianPSNR) {
		fprintf(w, "    %-10s %6.2f dB\n", name, out.MedianPSNR[name])
	}

	// Figure 15.
	fprintf(w, "\n== Figure 15: Dragonfly skip-location heat map ==\n")
	fprintf(w, "Paper: skip fraction never above 0.8%%, concentrated at the viewport periphery.\n")
	if len(out.SkipHeat) > 0 {
		maxSkip := 0.0
		for _, v := range out.SkipHeat {
			if v > maxSkip {
				maxSkip = v
			}
		}
		fprintf(w, "Measured max per-tile unavailable fraction: %.2f%% (grid %dx%d)\n",
			100*maxSkip, out.HeatRows, out.HeatCols)
		fprintf(w, "Heat map (per-mille of views where the tile was unavailable):\n")
		for r := 0; r < out.HeatRows; r++ {
			fprintf(w, "  ")
			for c := 0; c < out.HeatCols; c++ {
				fprintf(w, "%4.0f", 1000*out.SkipHeat[r*out.HeatCols+c])
			}
			fprintf(w, "\n")
		}
	}

	// Figure 17.
	fprintf(w, "\n== Figure 17: qualitative feedback ==\n")
	fprintf(w, "Paper: ~90%% of Pano/Flare comments report blanks vs 47%% for Dragonfly (2.7%% 'many');\n")
	fprintf(w, "       73.7%% call Dragonfly reactive (Pano 57.2%%, Flare 78%% slow); 60.2%% high quality.\n\n")
	fprintf(w, "%-10s | %9s %9s | %9s %9s | %9s %9s\n",
		"scheme", "noBlanks", "manyBlnk", "fast", "slow", "hiQual", "loQual")
	for _, name := range sortedNames(out.Feedback) {
		fs := out.Feedback[name]
		fprintf(w, "%-10s | %8.1f%% %8.1f%% | %8.1f%% %8.1f%% | %8.1f%% %8.1f%%\n",
			name, 100*fs.BlanksNoneOrFew, 100*fs.BlanksMany,
			100*fs.ReactFast, 100*fs.ReactSlow,
			100*fs.QualityHigh, 100*fs.QualityLow)
	}
}

// Fig16Displacement reproduces Figure 16: the distribution of per-second
// yaw displacement across all sessions, per system — verifying that user
// movement was comparable regardless of the scheme.
func Fig16Displacement(out *StudyOutcome, w io.Writer) map[string]stats.Summary {
	res := map[string]stats.Summary{}
	perScheme := map[string][]float64{}
	for _, s := range out.Results.Sessions {
		if s.User >= len(out.Results.Heads) || s.Metrics == nil {
			continue
		}
		head := out.Results.Heads[s.User]
		secs := int(s.Metrics.WallDuration / time.Second)
		disp := head.YawDisplacementPerSecond()
		if secs < len(disp) {
			disp = disp[:secs]
		}
		perScheme[s.Scheme] = append(perScheme[s.Scheme], disp...)
	}
	fprintf(w, "== Figure 16: yaw displacement per second, per system ==\n")
	fprintf(w, "Paper: all systems experience similar displacement (movement is not the confound).\n\n")
	for _, name := range sortedNames(perScheme) {
		sum := stats.Summarize(perScheme[name])
		res[name] = sum
		fprintf(w, "%-10s median %5.1f deg/s   p90 %5.1f\n", name, sum.Median, sum.P90)
	}
	return res
}
