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

// wire returns the manifest's on-the-wire form, sharing its arrays.
func (m *Manifest) wire() manifestJSON {
	return manifestJSON{
		VideoID:          m.VideoID,
		Rows:             m.Rows,
		Cols:             m.Cols,
		FPS:              m.FPS,
		ChunkFrames:      m.ChunkFrames,
		NumChunks:        m.NumChunks,
		QPs:              qps[:],
		Sizes:            m.sizes,
		PSNR:             m.psnr,
		PSPNR:            m.pspnr,
		BlackPSNR:        m.blackPSNR,
		Full360:          m.full360,
		MaskDisplacement: m.MaskDisplacement,
		Checksums:        m.checksums,
		Full360Checksums: m.full360Checksums,
	}
}

// WriteTo serializes the manifest as JSON.
func (m *Manifest) WriteTo(w io.Writer) (int64, error) {
	b, err := m.AppendJSON(nil)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	return int64(n), err
}

// AppendJSON appends the manifest's JSON encoding to dst: exactly the bytes
// json.Marshal produces for its wire form, grown into dst once. The
// encoding is written by hand (see codec.go); a manifest the hand encoder
// declines — a video id that needs escaping, a NaN or infinite metric — is
// left to json.Marshal, which escapes the id and rejects the non-finite
// value.
func (m *Manifest) AppendJSON(dst []byte) ([]byte, error) {
	if b, ok := appendCanonical(dst, m); ok {
		return b, nil
	}
	b, err := json.Marshal(m.wire())
	if err != nil {
		return dst, fmt.Errorf("video: marshal manifest: %w", err)
	}
	return append(dst, b...), nil
}

// DecodeManifest parses a JSON manifest and validates its dimensions. The
// contract is json.Unmarshal's into the wire form, followed by the
// validation: b holds exactly one JSON value (trailing whitespace allowed),
// and the result owns its memory — nothing aliases b.
//
// A body in the canonical form — the one AppendJSON emits: its key order,
// no whitespace, a video id of printable ASCII without escapes — is decoded
// by hand, without reflection. Any other byte sequence, valid JSON or not,
// is handed to json.Unmarshal. The choice is made from the bytes alone;
// there is nothing to configure.
func DecodeManifest(b []byte) (*Manifest, error) {
	var j manifestJSON
	if !decodeCanonical(b, &j) {
		j = manifestJSON{}
		if err := json.Unmarshal(b, &j); err != nil {
			return nil, fmt.Errorf("video: decode manifest: %w", err)
		}
	}
	return j.manifest()
}

// manifest validates the wire form's dimensions and builds the Manifest
// over its arrays.
func (j *manifestJSON) manifest() (*Manifest, error) {
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
