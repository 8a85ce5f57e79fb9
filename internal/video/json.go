package video

import (
	"encoding/json"
	"fmt"
	"io"
)

// manifestJSON is the on-the-wire form of a Manifest. The flattened arrays
// use the same [chunk][tile][quality] layout as the in-memory manifest.
type manifestJSON struct {
	VideoID          string    `json:"video_id"`
	Rows             int       `json:"rows"`
	Cols             int       `json:"cols"`
	FPS              int       `json:"fps"`
	ChunkFrames      int       `json:"chunk_frames"`
	NumChunks        int       `json:"num_chunks"`
	QPs              []int     `json:"qps"`
	Sizes            []int64   `json:"sizes"`
	PSNR             []float64 `json:"psnr"`
	PSPNR            []float64 `json:"pspnr"`
	BlackPSNR        []float64 `json:"black_psnr"`
	Full360          []int64   `json:"full360"`
	MaskDisplacement []float64 `json:"mask_displacement"`

	// Payload checksums are optional for backward compatibility with
	// manifests serialized before wire v3.
	Checksums        []uint32 `json:"checksums,omitempty"`
	Full360Checksums []uint32 `json:"full360_checksums,omitempty"`
}

// WriteTo serializes the manifest as JSON.
func (m *Manifest) WriteTo(w io.Writer) (int64, error) {
	j := manifestJSON{
		VideoID:          m.VideoID,
		Rows:             m.Rows,
		Cols:             m.Cols,
		FPS:              m.FPS,
		ChunkFrames:      m.ChunkFrames,
		NumChunks:        m.NumChunks,
		QPs:              QPs[:],
		Sizes:            m.sizes,
		PSNR:             m.psnr,
		PSPNR:            m.pspnr,
		BlackPSNR:        m.blackPSNR,
		Full360:          m.full360,
		MaskDisplacement: m.MaskDisplacement,
		Checksums:        m.checksums,
		Full360Checksums: m.full360Checksums,
	}
	b, err := json.Marshal(j)
	if err != nil {
		return 0, fmt.Errorf("video: marshal manifest: %w", err)
	}
	n, err := w.Write(b)
	return int64(n), err
}

// ReadManifest parses a JSON manifest and validates its dimensions.
func ReadManifest(r io.Reader) (*Manifest, error) {
	var j manifestJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&j); err != nil {
		return nil, fmt.Errorf("video: decode manifest: %w", err)
	}
	if j.Rows <= 0 || j.Cols <= 0 || j.FPS <= 0 || j.ChunkFrames <= 0 || j.NumChunks <= 0 {
		return nil, fmt.Errorf("video: manifest %q has invalid dimensions", j.VideoID)
	}
	if len(j.QPs) != NumQualities {
		return nil, fmt.Errorf("video: manifest %q has %d quality levels, want %d", j.VideoID, len(j.QPs), NumQualities)
	}
	// Sizes has one entry per (chunk, tile, quality), so no dimension can
	// exceed its length. Dividing that down, not multiplying them up, keeps
	// a 2^32 × 2^32 grid from wrapping to 0 tiles and matching empty arrays.
	n := len(j.Sizes) / NumQualities
	if j.Rows > n || j.Cols > n/j.Rows || j.NumChunks > n/(j.Rows*j.Cols) {
		return nil, fmt.Errorf("video: manifest %q arrays have wrong length", j.VideoID)
	}
	tiles := j.Rows * j.Cols
	wantTQ := j.NumChunks * tiles * NumQualities
	if len(j.Sizes) != wantTQ || len(j.PSNR) != wantTQ || len(j.PSPNR) != wantTQ {
		return nil, fmt.Errorf("video: manifest %q arrays have wrong length", j.VideoID)
	}
	if len(j.BlackPSNR) != j.NumChunks*tiles {
		return nil, fmt.Errorf("video: manifest %q black PSNR array has wrong length", j.VideoID)
	}
	if len(j.Full360) != j.NumChunks*NumQualities {
		return nil, fmt.Errorf("video: manifest %q full360 array has wrong length", j.VideoID)
	}
	// Checksums are all-or-nothing: a manifest carrying only part of them
	// would silently disable verification for the missing variants.
	hasSums := len(j.Checksums) > 0 || len(j.Full360Checksums) > 0
	if hasSums && (len(j.Checksums) != wantTQ || len(j.Full360Checksums) != j.NumChunks*NumQualities) {
		return nil, fmt.Errorf("video: manifest %q checksum arrays have wrong length", j.VideoID)
	}
	m := &Manifest{
		VideoID:          j.VideoID,
		Rows:             j.Rows,
		Cols:             j.Cols,
		FPS:              j.FPS,
		ChunkFrames:      j.ChunkFrames,
		NumChunks:        j.NumChunks,
		sizes:            j.Sizes,
		psnr:             j.PSNR,
		pspnr:            j.PSPNR,
		blackPSNR:        j.BlackPSNR,
		full360:          j.Full360,
		MaskDisplacement: j.MaskDisplacement,
		checksums:        j.Checksums,
		full360Checksums: j.Full360Checksums,
	}
	if m.MaskDisplacement == nil {
		m.MaskDisplacement = make([]float64, m.NumChunks)
	}
	for _, size := range m.sizes {
		if size < 0 {
			return nil, fmt.Errorf("video: manifest %q has negative tile size", j.VideoID)
		}
	}
	for _, size := range m.full360 {
		if size < 0 {
			return nil, fmt.Errorf("video: manifest %q has negative full360 size", j.VideoID)
		}
	}
	return m, nil
}
