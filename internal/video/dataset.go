package video

import (
	"fmt"
	"strings"
)

// DatasetEntry records one video of the paper's evaluation set with its
// Table 3 bitrate targets and a qualitative motion level (the dataset of
// [34] classifies videos by camera motion and moving objects).
type DatasetEntry struct {
	ID          string
	QP42Mbps    float64 // median full-360° bitrate at QP 42
	QP22Mbps    float64 // median full-360° bitrate at QP 22
	MotionLevel float64 // 0 = static scene, 1 = heavy camera/object motion
	Seed        int64
}

// Table3 lists the seven videos used throughout the paper's emulation
// experiments, with the median bitrates of Table 3 (sorted by QP 42 rate).
var Table3 = []DatasetEntry{
	{ID: "v1", QP42Mbps: 0.9, QP22Mbps: 10.4, MotionLevel: 0.15, Seed: 101},
	{ID: "v2", QP42Mbps: 1.2, QP22Mbps: 10.5, MotionLevel: 0.25, Seed: 102},
	{ID: "v7", QP42Mbps: 1.7, QP22Mbps: 24.4, MotionLevel: 0.40, Seed: 107},
	{ID: "v8", QP42Mbps: 3.1, QP22Mbps: 28.4, MotionLevel: 0.55, Seed: 108},
	{ID: "v14", QP42Mbps: 3.3, QP22Mbps: 27.8, MotionLevel: 0.60, Seed: 114},
	{ID: "v28", QP42Mbps: 3.6, QP22Mbps: 30.9, MotionLevel: 0.70, Seed: 128},
	{ID: "v27", QP42Mbps: 4.6, QP22Mbps: 49.6, MotionLevel: 0.85, Seed: 127},
}

// Table3Entry returns the Table 3 row of the video called id.
func Table3Entry(id string) (DatasetEntry, error) {
	ids := make([]string, len(Table3))
	for i, e := range Table3 {
		if e.ID == id {
			return e, nil
		}
		ids[i] = e.ID
	}
	return DatasetEntry{}, fmt.Errorf("unknown video %q (Table 3 has %s)", id, strings.Join(ids, " "))
}

// Manifest generates the entry's video with the paper's evaluation
// configuration (12×12 tiles, 1-second chunks) and numChunks chunks; 0
// takes Generate's default of 60, the paper's one-minute videos.
func (e DatasetEntry) Manifest(numChunks int) *Manifest {
	return Generate(GenParams{
		ID:             e.ID,
		NumChunks:      numChunks,
		TargetQP42Mbps: e.QP42Mbps,
		TargetQP22Mbps: e.QP22Mbps,
		MotionLevel:    e.MotionLevel,
		Seed:           e.Seed,
	})
}

// Dataset generates the seven Table 3 videos with numChunks chunks each; 0
// gives the paper's one-minute videos.
func Dataset(numChunks int) []*Manifest {
	out := make([]*Manifest, 0, len(Table3))
	for _, e := range Table3 {
		out = append(out, e.Manifest(numChunks))
	}
	return out
}
