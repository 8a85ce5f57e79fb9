package dragonfly_test

import (
	"fmt"
	"log"
	"os"
	"strings"
	"testing"
	"time"

	"dragonfly/internal/core"
	"dragonfly/internal/player"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// Example streams one synthetic 360° video with Dragonfly in-process
// (discrete-event emulation) and prints the session metrics. This is the
// smallest end-to-end use of the pieces: a video manifest, a head trace, a
// bandwidth trace, the Dragonfly scheme, and the playback engine.
func Example() {
	// A 20-second video calibrated like the paper's v8 (Table 3).
	manifest := video.Generate(video.GenParams{
		ID:             "quickstart",
		NumChunks:      20,
		TargetQP42Mbps: 3.1,
		TargetQP22Mbps: 28.4,
		MotionLevel:    0.5,
		Seed:           1,
	})

	// A synthetic user who moves a moderate amount, sampled at 40 ms like
	// the paper's HMD.
	head := trace.GenerateHead(trace.HeadGenParams{
		UserID:   "demo",
		Class:    trace.MotionMedium,
		Duration: 20 * time.Second,
		Seed:     2,
	})

	// A Belgian-4G-like bandwidth trace, filtered and capped per §4.2.
	bandwidth := trace.DefaultBelgianTraces(1)[0]

	metrics, err := player.Run(player.Config{
		Manifest:  manifest,
		Head:      head,
		Bandwidth: bandwidth,
		Scheme:    core.NewDefault(), // Dragonfly with the paper's defaults
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Dragonfly quickstart session")
	fmt.Printf("  video             %s (%d chunks, %dx%d tiles)\n",
		manifest.VideoID, manifest.NumChunks, manifest.Rows, manifest.Cols)
	fmt.Printf("  bandwidth trace   %s (mean %.1f Mbps)\n", bandwidth.ID, bandwidth.Mean())
	fmt.Printf("  frames rendered   %d of %d\n", metrics.TotalFrames, manifest.NumFrames())
	fmt.Printf("  median PSNR       %.2f dB\n", metrics.MedianScore())
	fmt.Printf("  rebuffering       %.2f%%  (Dragonfly never stalls)\n", 100*metrics.RebufferRatio())
	fmt.Printf("  incomplete frames %.2f%% (masking stream covers skips)\n", metrics.IncompleteFramePct())
	fmt.Printf("  top-quality tiles %.1f%%\n", 100*metrics.QualityShare(video.Highest))
	fmt.Printf("  masked tiles      %.1f%%\n", 100*metrics.MaskingShare())
	fmt.Printf("  bandwidth wastage %.1f%%\n", metrics.WastagePct())
	// Output:
	// Dragonfly quickstart session
	//   video             quickstart (20 chunks, 12x12 tiles)
	//   bandwidth trace   belgian-1 (mean 13.4 Mbps)
	//   frames rendered   600 of 600
	//   median PSNR       46.77 dB
	//   rebuffering       0.00%  (Dragonfly never stalls)
	//   incomplete frames 0.00% (masking stream covers skips)
	//   top-quality tiles 65.9%
	//   masked tiles      15.3%
	//   bandwidth wastage 34.3%
}

// TestREADMEQuotesExample holds README's quickstart block to Example's
// pinned output, byte for byte, so the two cannot drift apart.
func TestREADMEQuotesExample(t *testing.T) {
	src, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	_, pinned, ok := strings.Cut(string(src), "\t// Output:\n")
	if !ok {
		t.Fatal("example_test.go: no // Output: block")
	}
	pinned, _, _ = strings.Cut(pinned, "}\n")
	var want strings.Builder
	for _, line := range strings.SplitAfter(pinned, "\n") {
		if line != "" {
			want.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "\t//"), " "))
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Quickstart\n")
	if !ok {
		t.Fatal("README.md: no Quickstart section")
	}
	_, block, ok := strings.Cut(section, "\n```\n")
	if !ok {
		t.Fatal("README.md: no plain fenced block in the Quickstart section")
	}
	block, _, _ = strings.Cut(block, "```\n")
	if block != want.String() {
		t.Errorf("README.md's quickstart block:\n%s\nExample's pinned output:\n%s", block, want.String())
	}
}
