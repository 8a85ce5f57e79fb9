package experiments

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"dragonfly/internal/sim"
)

// smallEnvOnce shares one SmallEnv across tests (construction generates
// videos and traces).
var (
	envOnce sync.Once
	envVal  *Env
)

func testEnv() *Env {
	envOnce.Do(func() { envVal = SmallEnv() })
	return envVal
}

func TestSmallEnvShape(t *testing.T) {
	env := testEnv()
	if len(env.Videos) == 0 || len(env.Users) == 0 || len(env.Belgian) == 0 || len(env.Irish) == 0 {
		t.Fatal("small env incomplete")
	}
	for _, v := range env.Videos {
		nonZero := false
		for _, d := range v.MaskDisplacement {
			if d > 0 {
				nonZero = true
			}
		}
		if !nonZero {
			t.Errorf("%s: mask displacement never filled", v.VideoID)
		}
	}
}

func TestDefaultEnvShape(t *testing.T) {
	env := DefaultEnv()
	if len(env.Videos) != 7 {
		t.Errorf("videos = %d, want 7", len(env.Videos))
	}
	if len(env.Users) != 10 {
		t.Errorf("users = %d, want 10", len(env.Users))
	}
	if len(env.Belgian) != 11 {
		t.Errorf("belgian traces = %d, want 11", len(env.Belgian))
	}
	if len(env.Irish) != 10 {
		t.Errorf("irish traces = %d, want 10", len(env.Irish))
	}
}

func TestFig2Shape(t *testing.T) {
	var buf bytes.Buffer
	points, err := Fig2PredictionAccuracy(testEnv(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("got %d window points", len(points))
	}
	// Headline property: accuracy degrades sharply with the window.
	first, last := points[0], points[len(points)-1]
	if first.MedianAccuracy < 0.85 {
		t.Errorf("short-window accuracy %.2f too low", first.MedianAccuracy)
	}
	if last.MedianAccuracy > first.MedianAccuracy-0.1 {
		t.Errorf("no degradation: %.2f -> %.2f", first.MedianAccuracy, last.MedianAccuracy)
	}
	if !strings.Contains(buf.String(), "Figure 2") {
		t.Error("report missing header")
	}
}

func TestFig9SmallScaleClaims(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig9MainComparison(testEnv(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Schemes["Dragonfly"]
	// Claim 1: Dragonfly has the best median viewport quality.
	for _, other := range []string{"Flare", "Pano", "Two-tier"} {
		if s, ok := res.Schemes[other]; ok && d.Score.Median <= s.Score.Median {
			t.Errorf("Dragonfly median %.2f not above %s %.2f", d.Score.Median, other, s.Score.Median)
		}
	}
	// Claim 2: Dragonfly never stalls and never renders incomplete frames.
	if d.SessionsWithRebuf != 0 {
		t.Error("Dragonfly sessions rebuffered")
	}
	if d.SessionsWithIncomplete != 0 {
		t.Error("Dragonfly sessions had incomplete frames")
	}
	// Claim 3: Flare's wastage drops substantially with a 1 s look-ahead.
	if f3, ok := res.Schemes["Flare"]; ok {
		if f1, ok2 := res.Schemes["Flare-1s"]; ok2 && f1.MedianWastagePct >= f3.MedianWastagePct {
			t.Errorf("Flare-1s wastage %.1f%% not below Flare %.1f%%", f1.MedianWastagePct, f3.MedianWastagePct)
		}
	}
}

func TestFig12And13SmallScale(t *testing.T) {
	var buf bytes.Buffer
	abl, err := Fig12Ablation(testEnv(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	d := abl.Schemes["Dragonfly"]
	// The fourth column is the minimum per-frame quality, and its header
	// says so: stats.Summary has no first percentile to print.
	var header, row []string
	for _, line := range strings.Split(buf.String(), "\n") {
		switch f := strings.Fields(line); {
		case len(f) > 3 && f[0] == "variant":
			header = f
		case len(f) > 3 && f[0] == "Dragonfly":
			row = f
		}
	}
	if header == nil || header[3] != "minPSNR" {
		t.Errorf("Fig 12 header %q: fourth column should be minPSNR", header)
	}
	if want := fmt.Sprintf("%.2f", d.Score.Min); row == nil || row[3] != want {
		t.Errorf("Fig 12 Dragonfly row %q: fourth column should be Score.Min %s", row, want)
	}
	// Dragonfly beats PerChunk and PassiveSkip in median quality.
	for _, other := range []string{"PerChunk", "PassiveSkip"} {
		if s, ok := abl.Schemes[other]; ok && d.Score.Median <= s.Score.Median {
			t.Errorf("Dragonfly median %.2f not above %s %.2f", d.Score.Median, other, s.Score.Median)
		}
	}
	// NoMask is the only variant with incomplete frames, and the lowest
	// wastage.
	if nm, ok := abl.Schemes["NoMask"]; ok {
		if nm.SessionsWithIncomplete == 0 {
			t.Error("NoMask should see incomplete frames")
		}
		for _, other := range []string{"Dragonfly", "PassiveSkip", "PerChunk"} {
			s := abl.Schemes[other]
			if s.SessionsWithIncomplete != 0 {
				t.Errorf("%s saw incomplete frames despite masking", other)
			}
		}
		// Dropping the masking stream saves its overhead: NoMask wastes
		// less than the refining masking variants. (PerChunk's stale
		// once-per-chunk fetches make its wastage noisy at small scale; the
		// full-scale run in EXPERIMENTS.md records it.)
		for _, other := range []string{"Dragonfly", "PassiveSkip"} {
			s := abl.Schemes[other]
			if nm.MedianWastagePct >= s.MedianWastagePct {
				t.Errorf("NoMask wastage %.1f%% not below %s %.1f%%", nm.MedianWastagePct, other, s.MedianWastagePct)
			}
		}
	}

	f13 := Fig13SkipAnalysis(abl, &buf)
	// Dragonfly proactively skips more than PassiveSkip yet renders more
	// tiles at top quality.
	if f13.PrimarySkipViewportPct["Dragonfly"] <= f13.PrimarySkipViewportPct["PassiveSkip"] {
		t.Errorf("Dragonfly skip%% %.2f not above PassiveSkip %.2f",
			f13.PrimarySkipViewportPct["Dragonfly"], f13.PrimarySkipViewportPct["PassiveSkip"])
	}
	if f13.TopQualityShare["Dragonfly"] <= f13.TopQualityShare["PassiveSkip"] {
		t.Errorf("Dragonfly top-quality share %.2f not above PassiveSkip %.2f",
			f13.TopQualityShare["Dragonfly"], f13.TopQualityShare["PassiveSkip"])
	}
}

func TestFig10SmallScale(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig10PSPNR(testEnv(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	d, p := res["Dragonfly-PSPNR"], res["Pano-PSPNR"]
	if d.Score.Median <= p.Score.Median {
		t.Errorf("Dragonfly-PSPNR %.2f not above Pano-PSPNR %.2f", d.Score.Median, p.Score.Median)
	}
}

func TestFig11SmallScale(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig11Irish(testEnv(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	d := res["Dragonfly"]
	for _, other := range []string{"Flare", "Pano", "Two-tier"} {
		if s, ok := res[other]; ok && d.Score.Median <= s.Score.Median {
			t.Errorf("Irish: Dragonfly %.2f not above %s %.2f", d.Score.Median, other, s.Score.Median)
		}
	}
	if d.SessionsWithRebuf != 0 {
		t.Error("Dragonfly rebuffered on Irish traces")
	}
}

func TestFig19SmallScale(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig19MaskingStrategies(testEnv(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	full, tiled := res["Dragonfly"], res["Dragonfly-Tiled"]
	// The two strategies should be comparable in quality (within 2 dB).
	diff := full.Score.Median - tiled.Score.Median
	if diff > 2 || diff < -2 {
		t.Errorf("masking strategies should be comparable: full %.2f vs tiled %.2f", full.Score.Median, tiled.Score.Median)
	}
	// Tiled masking may see incomplete frames; full-360 never does.
	if full.SessionsWithIncomplete != 0 {
		t.Error("full-360 masking saw incomplete frames")
	}
}

func TestFig18(t *testing.T) {
	var buf bytes.Buffer
	low, high := Fig18QualitySensitivity(testEnv(), &buf)
	if high-low < 3 {
		t.Errorf("sensitivity spread too small: %.1f..%.1f", low, high)
	}
}

func TestFig20Claims(t *testing.T) {
	var buf bytes.Buffer
	points := Fig20TilingOverhead(testEnv(), &buf)
	if len(points) == 0 {
		t.Fatal("no points")
	}
	// Per video: F/V at the lowest quality exceeds F/V at the highest.
	byVideo := map[string][]Fig20Point{}
	for _, p := range points {
		byVideo[p.VideoID] = append(byVideo[p.VideoID], p)
	}
	for vid, ps := range byVideo {
		if ps[0].OverheadRatio <= ps[len(ps)-1].OverheadRatio {
			t.Errorf("%s: overhead did not shrink with quality (%.3f -> %.3f)",
				vid, ps[0].OverheadRatio, ps[len(ps)-1].OverheadRatio)
		}
		for _, p := range ps {
			if p.OverheadRatio <= 1 {
				t.Errorf("%s: fixed tiling should cost more than variable (got %.3f)", vid, p.OverheadRatio)
			}
		}
	}
}

func TestTilingSweep12x12Optimal(t *testing.T) {
	var buf bytes.Buffer
	rows := TilingSweep(testEnv(), &buf)
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	var base, coarse, fine TilingSweepRow
	for _, r := range rows {
		switch r.Rows {
		case 6:
			coarse = r
		case 12:
			base = r
		case 24:
			fine = r
		}
	}
	if base.MeanBytes >= coarse.MeanBytes {
		t.Errorf("12x12 (%.0f) should beat 6x6 (%.0f)", base.MeanBytes, coarse.MeanBytes)
	}
	if base.MeanBytes >= fine.MeanBytes {
		t.Errorf("12x12 (%.0f) should beat 24x18 (%.0f)", base.MeanBytes, fine.MeanBytes)
	}
}

func TestTable3Calibration(t *testing.T) {
	var buf bytes.Buffer
	rows := Table3VideoBitrates(DefaultEnv(), &buf)
	if len(rows) != 7 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.PaperQP42 == 0 {
			t.Errorf("%s missing paper target", r.VideoID)
			continue
		}
		if rel(r.MeasuredQP42, r.PaperQP42) > 0.25 || rel(r.MeasuredQP22, r.PaperQP22) > 0.25 {
			t.Errorf("%s: calibration off target: %.2f/%.2f vs %.2f/%.2f",
				r.VideoID, r.MeasuredQP42, r.MeasuredQP22, r.PaperQP42, r.PaperQP22)
		}
	}
}

func rel(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / b
}

func TestTablesPrint(t *testing.T) {
	var buf bytes.Buffer
	Table1SchemeMatrix(&buf)
	Table2VariantMatrix(&buf)
	s := buf.String()
	for _, want := range []string{"Dragonfly", "Two-tier", "PassiveSkip", "NoMask", "utility"} {
		if !strings.Contains(s, want) {
			t.Errorf("tables missing %q", want)
		}
	}
}

func TestRegistry(t *testing.T) {
	all := All(4)
	if len(all) != 26 {
		t.Errorf("registry has %d experiments", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Description == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := Find("fig9", 4); !ok {
		t.Error("Find failed")
	}
	if _, ok := Find("nope", 4); ok {
		t.Error("Find found a ghost")
	}
}

func TestExtensionExperiments(t *testing.T) {
	env := testEnv()
	var buf bytes.Buffer

	acc := ExtPredictorMethods(env, &buf)
	if len(acc) != 3 {
		t.Fatalf("predictor methods: %d rows", len(acc))
	}
	for name, row := range acc {
		if len(row) != 3 {
			t.Fatalf("%s: %d windows", name, len(row))
		}
		if row[2] > row[0] {
			t.Errorf("%s accuracy improved with window", name)
		}
	}

	iv, err := ExtDecisionInterval(env, &buf)
	if err != nil {
		t.Fatal(err)
	}
	fast, okF := iv["Dragonfly@100ms"]
	slow, okS := iv["Dragonfly@1s"]
	if !okF || !okS {
		t.Fatalf("interval sweep missing endpoints: %v", iv)
	}
	if fast.Score.Median < slow.Score.Median {
		t.Errorf("100ms refinement (%.2f) should not trail 1s (%.2f)",
			fast.Score.Median, slow.Score.Median)
	}

	dec, err := ExtDecodeStage(env, &buf)
	if err != nil {
		t.Fatal(err)
	}
	inf, ok1 := dec["infinite"]
	starved, ok2 := dec["5 MB/s"]
	if !ok1 || !ok2 {
		t.Fatalf("decode sweep missing rows: %v", dec)
	}
	if starved.Score.Median > inf.Score.Median+0.5 {
		t.Errorf("slower decoder cannot raise quality: %.2f vs %.2f",
			starved.Score.Median, inf.Score.Median)
	}

	roi, err := ExtRoIGeometry(env, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(roi) != 3 {
		t.Fatalf("roi sweep: %d rows", len(roi))
	}
}

func TestExtMaskingOptimizations(t *testing.T) {
	var buf bytes.Buffer
	out, err := ExtMaskingOptimizations(testEnv(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	plain, ok1 := out["tiled (chunk order)"]
	sched, ok2 := out["tiled + utility sched"]
	interp, ok3 := out["tiled + interpolation"]
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("missing rows: %v", out)
	}
	// Interpolation must not increase incomplete frames.
	if interp.MedianIncompletePct > plain.MedianIncompletePct {
		t.Errorf("interpolation raised incomplete%%: %.3f vs %.3f",
			interp.MedianIncompletePct, plain.MedianIncompletePct)
	}
	// The scheduled variant stays within ~2 dB of the plain one.
	if d := sched.Score.Median - plain.Score.Median; d < -2 || d > 2 {
		t.Errorf("scheduled masking diverged: %.2f vs %.2f", sched.Score.Median, plain.Score.Median)
	}
}

func TestExtFaultTolerance(t *testing.T) {
	// Real-time sessions: a few seconds of wall clock each.
	var buf bytes.Buffer
	out, err := ExtFaultTolerance(testEnv(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	res, ok1 := out["resilient"]
	cut, ok2 := out["no-reconnect"]
	if !ok1 || !ok2 {
		t.Fatalf("missing rows: %v", out)
	}
	if res.Metrics.Disconnects < 3 {
		t.Errorf("resilient saw %d disconnects, want >= 3", res.Metrics.Disconnects)
	}
	if res.Counters.Resumes < 3 || res.Counters.ResumedItems <= 0 {
		t.Errorf("resume machinery idle: %+v", res.Counters)
	}
	// Headline: surviving the cuts yields strictly better quality.
	if cut.Metrics.MedianScore() >= res.Metrics.MedianScore() {
		t.Errorf("no-reconnect median %.2f not below resilient %.2f",
			cut.Metrics.MedianScore(), res.Metrics.MedianScore())
	}
	if !strings.Contains(buf.String(), "fault tolerance") {
		t.Error("report missing header")
	}
}

func TestWriteCDFCSV(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/test_cdf.csv"
	if err := writeCDFCSV(path, map[string][]float64{
		"a": {3, 1, 2},
		"b": {10, 20},
	}, 0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "a_value,a_frac,b_value,b_frac" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 4 { // header + 3 rows (longest series)
		t.Errorf("got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[1], "1.0000,0.333333,10.0000,0.500000") {
		t.Errorf("row 1 = %q", lines[1])
	}
}

func TestDumpResultCDFs(t *testing.T) {
	env := testEnv()
	res, err := sim.Run(sim.Sweep{
		Videos:     env.Videos[:1],
		Users:      env.Users[:1],
		Bandwidths: env.Belgian[:1],
		Schemes:    []string{"flare"},
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := dumpResultCDFs(dir, "smoke", res); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"smoke_quality_cdf.csv", "smoke_rebuffer_cdf.csv", "smoke_wastage_cdf.csv"} {
		if _, err := os.Stat(dir + "/" + f); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}
}

func TestFig5SmallScale(t *testing.T) {
	var buf bytes.Buffer
	out, err := Fig5YawDuringStalls(testEnv(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.StallCount > 0 && out.MeanYawDuringStall < 0 {
		t.Error("negative displacement")
	}
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Error("missing header")
	}
}

func TestFig21to23SmallScale(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig21to23ErrorSensitivity(testEnv(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d error levels", len(rows))
	}
	for _, row := range rows {
		d, ok := row.Schemes["Dragonfly"]
		if !ok {
			t.Fatalf("D=%v missing Dragonfly", row.ErrorDeg)
		}
		// The paper's headline: Dragonfly stays ahead at every error level.
		for _, other := range []string{"Pano", "Two-tier"} {
			if s, ok := row.Schemes[other]; ok && d.Score.Median <= s.Score.Median {
				t.Errorf("D=%v: Dragonfly %.2f not above %s %.2f",
					row.ErrorDeg, d.Score.Median, other, s.Score.Median)
			}
		}
		if d.SessionsWithRebuf != 0 {
			t.Errorf("D=%v: Dragonfly rebuffered", row.ErrorDeg)
		}
	}
}

func TestUserStudySmallScale(t *testing.T) {
	var buf bytes.Buffer
	out, err := RunUserStudy(testEnv(), 4, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// Structural checks; the full 26-user calibration lives in
	// EXPERIMENTS.md.
	for _, name := range []string{"Dragonfly", "Flare", "Pano"} {
		if _, ok := out.RatedAtLeast4[name]; !ok {
			t.Errorf("missing ratings for %s", name)
		}
		if out.MedianPSNR[name] <= 0 {
			t.Errorf("missing PSNR for %s", name)
		}
	}
	if out.MedianPSNR["Dragonfly"] <= out.MedianPSNR["Pano"] {
		t.Errorf("study PSNR ordering: Dragonfly %.2f vs Pano %.2f",
			out.MedianPSNR["Dragonfly"], out.MedianPSNR["Pano"])
	}
	if len(out.SkipHeat) == 0 {
		t.Error("no skip heat map")
	}
	disp := Fig16Displacement(out, &buf)
	if len(disp) != 3 {
		t.Errorf("displacement rows: %d", len(disp))
	}
}
