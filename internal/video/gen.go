package video

import (
	"math"
	"math/rand"

	"dragonfly/internal/geom"
)

// GenParams parameterizes the synthetic 360° encoder. Each video is fully
// determined by its parameters and Seed, so datasets are reproducible.
type GenParams struct {
	ID string

	Rows, Cols  int // tile grid (paper: 12×12)
	FPS         int // frames per second (paper: chunk = 1 s)
	ChunkFrames int
	NumChunks   int // paper videos are 1 minute => 60 chunks

	// TargetQP42Mbps is the desired median full-360° bitrate at the lowest
	// quality (QP 42); TargetQP22Mbps at the highest (QP 22). The paper's
	// Table 3 lists these per video (0.9–4.6 and 10.4–49.6 Mbps).
	TargetQP42Mbps float64
	TargetQP22Mbps float64

	// MotionLevel in [0, 1] controls how much the content hotspot (moving
	// objects / camera motion) drifts across chunks, which drives spatial
	// non-uniformity of per-chunk tile sizes.
	MotionLevel float64

	Seed int64
}

// fillDefaults applies the paper's evaluation defaults to unset fields.
func (p *GenParams) fillDefaults() {
	if p.Rows == 0 {
		p.Rows = 12
	}
	if p.Cols == 0 {
		p.Cols = 12
	}
	if p.FPS == 0 {
		p.FPS = 30
	}
	if p.ChunkFrames == 0 {
		p.ChunkFrames = p.FPS // 1-second chunks
	}
	if p.NumChunks == 0 {
		p.NumChunks = 60
	}
	if p.TargetQP42Mbps == 0 {
		p.TargetQP42Mbps = 2.0
	}
	if p.TargetQP22Mbps == 0 {
		p.TargetQP22Mbps = p.TargetQP42Mbps * 11
	}
}

// Encoding-model constants. tilingOverhead models the loss of intra-frame
// prediction when a chunk is split into 144 independent tiles: significant at
// low rates, negligible at high rates (paper Fig 20 and §4.3).
var tilingOverhead = [NumQualities]float64{0.30, 0.20, 0.12, 0.07, 0.04}

// perTileHeaderBytes is the fixed container/codec header cost each
// independently decodable tile pays regardless of content. It is why tiled
// masking can cost more than full-360° masking at low quality (paper §3.2).
const perTileHeaderBytes = 220

// Generate synthesizes a manifest.
//
// Content model: each tile has a static spatial complexity (a smooth random
// field: textured regions compress worse and are more quality-sensitive) plus
// a moving hotspot whose drift rate follows MotionLevel. Chunk-level size
// follows a mean-reverting random walk so bitrates vary across chunks as real
// encodings do. Rates across QPs follow a geometric ladder fitted to the two
// Table 3 target bitrates; PSNR falls roughly 0.5 dB per QP step, faster for
// complex tiles (which also makes them more quality-sensitive, Fig 18).
func Generate(p GenParams) *Manifest {
	p.fillDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	m := newManifest(p.ID, p.Rows, p.Cols, p.FPS, p.ChunkFrames, p.NumChunks)
	tiles := m.NumTiles()

	// Static spatial complexity in (0.1, 1] and mean luminance in
	// (0.1, 0.9): each a smooth random field over the tile lattice.
	complexity := waveField(rng, p.Rows, p.Cols, 6, 3, 0.1, 0.9)
	lum := waveField(rng, p.Rows, p.Cols, 4, 2, 0.1, 0.8)

	// Per-QP full-360° rate ladder: geometric between the two targets.
	ratio := p.TargetQP22Mbps / p.TargetQP42Mbps
	if ratio < 1.01 {
		ratio = 1.01
	}
	step := math.Pow(ratio, 1.0/float64(NumQualities-1))
	baseRate := make([]float64, NumQualities) // Mbps at each quality
	for q := 0; q < NumQualities; q++ {
		baseRate[q] = p.TargetQP42Mbps * math.Pow(step, float64(q))
	}

	// Chunk size multiplier: mean-reverting random walk around 1.
	mult := 1.0
	secs := float64(p.ChunkFrames) / float64(p.FPS)
	// Hotspot drifts with MotionLevel: a high-complexity bump that moves.
	hotYaw := rng.Float64()*360 - 180
	hotPitch := rng.Float64()*60 - 30
	grid := geom.NewGrid(p.Rows, p.Cols)

	for chunk := 0; chunk < p.NumChunks; chunk++ {
		mult += (1-mult)*0.3 + rng.NormFloat64()*0.12
		mult = math.Max(0.55, math.Min(1.7, mult))
		hotYaw = geom.NormalizeYaw(hotYaw + rng.NormFloat64()*40*p.MotionLevel)
		hotPitch = geom.ClampPitch(hotPitch + rng.NormFloat64()*10*p.MotionLevel)
		hot := geom.Orientation{Yaw: hotYaw, Pitch: hotPitch}

		// Per-chunk effective complexity: static field plus moving hotspot.
		eff := make([]float64, tiles)
		var weightSum float64
		for t := 0; t < tiles; t++ {
			d := geom.AngularDistance(grid.Center(geom.TileID(t)), hot)
			bump := 0.7 * math.Exp(-(d*d)/(2*35*35))
			eff[t] = complexity[t] + bump
			// Weight tile payload share by effective complexity and the
			// tile's true solid angle (pole tiles carry fewer pixels).
			weightSum += eff[t] * grid.SolidAngleWeight(geom.TileID(t))
		}

		for q := Quality(0); q < NumQualities; q++ {
			fullBytes := int64(baseRate[q] * mult * 1e6 * secs / 8)
			m.SetFull360Size(chunk, q, fullBytes)
			tiledBudget := float64(fullBytes) * (1 + tilingOverhead[q])
			for t := 0; t < tiles; t++ {
				share := eff[t] * grid.SolidAngleWeight(geom.TileID(t)) / weightSum
				payload := tiledBudget * share
				size := int64(payload) + perTileHeaderBytes
				m.SetTileSize(chunk, geom.TileID(t), q, size)
			}
		}

		for t := 0; t < tiles; t++ {
			tid := geom.TileID(t)
			c := math.Min(1, eff[t])
			// PSNR at QP22 is higher for simple content; slope per QP step is
			// steeper for complex content, producing varied quality
			// sensitivity across tiles (Fig 18).
			psnr22 := 49 + 3*(1-c) + rng.NormFloat64()*0.5
			slope := 0.35 + 0.45*c // dB per QP
			jnd := 2 + 8*c         // texture masks distortion (Pano's insight)
			for q := Quality(0); q < NumQualities; q++ {
				qp := q.QP()
				psnr := psnr22 - slope*float64(qp-22)
				psnr = math.Max(18, math.Min(52, psnr))
				m.setTilePSNR(chunk, tid, q, psnr)
				// PSPNR: distortion below the JND threshold is imperceptible.
				// Textured tiles (higher JND) mask more of their distortion;
				// the proportional floor keeps the perceptible error tied to
				// the actual error so PSPNR still discriminates encodings.
				mse := 255 * 255 * math.Pow(10, -psnr/10)
				perceptible := math.Max(mse-jnd*jnd*0.3, mse*0.15)
				pspnr := 10 * math.Log10(255*255/perceptible)
				m.setTilePSPNR(chunk, tid, q, math.Min(pspnr, 60))
			}
			// Black-render penalty: MSE against black grows with luminance.
			l := lum[t] * 150
			mseBlack := l*l + 1500*c // mean² plus content variance
			m.setBlackPSNR(chunk, tid, 10*math.Log10(255*255/mseBlack))
		}
	}

	// Payload checksums (wire v3): the synthetic encoder emits all-zero
	// payloads, so each variant's CRC32-C depends only on its size, and
	// zeroCRC computes it from the size — about a millisecond for the
	// 43 500 variants of a minute-long manifest, where a hardware CRC pass
	// over their 0.35–1.57 GB of zeros (v1–v27) took up to 67 ms. The
	// client verifies these before marking a tile held.
	m.allocChecksums()
	for chunk := 0; chunk < p.NumChunks; chunk++ {
		for q := Quality(0); q < NumQualities; q++ {
			m.setFull360Checksum(chunk, q, zeroCRC(m.Full360Size(chunk, q)))
			for t := 0; t < tiles; t++ {
				tid := geom.TileID(t)
				m.setTileChecksum(chunk, tid, q, zeroCRC(m.TileSize(chunk, tid, q)))
			}
		}
	}
	return m
}

// waveField draws a smooth random field over the rows×cols tile lattice:
// the sum of waves low-frequency cosines, each frequency drawn from
// 1…maxFreq per axis, normalized into [lo, lo+span]. It makes 4 rng draws
// per wave, in wave order.
func waveField(rng *rand.Rand, rows, cols, waves, maxFreq int, lo, span float64) []float64 {
	type wave struct{ fr, fc, phase, amp float64 }
	ws := make([]wave, waves)
	for i := range ws {
		ws[i] = wave{
			fr:    float64(rng.Intn(maxFreq) + 1),
			fc:    float64(rng.Intn(maxFreq) + 1),
			phase: rng.Float64() * 2 * math.Pi,
			amp:   0.5 + rng.Float64(),
		}
	}
	field := make([]float64, rows*cols)
	minV, maxV := math.Inf(1), math.Inf(-1)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := 0.0
			for _, w := range ws {
				v += w.amp * math.Cos(2*math.Pi*(w.fr*float64(r)/float64(rows)+w.fc*float64(c)/float64(cols))+w.phase)
			}
			field[r*cols+c] = v
			minV = math.Min(minV, v)
			maxV = math.Max(maxV, v)
		}
	}
	for id, v := range field {
		field[id] = lo + span*(v-minV)/(maxV-minV+1e-12)
	}
	return field
}
