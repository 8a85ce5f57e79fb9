// Package trace provides the two trace substrates of the paper's
// evaluation: user head-motion traces (the [34] dataset in the paper) and
// network bandwidth traces (the Belgian 4G [45] and Irish 5G [40] datasets),
// plus synthetic generators calibrated to their published characteristics.
package trace

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"dragonfly/internal/geom"
)

// headSamplePeriod is the orientation sampling period: the Oculus HMD sends
// user coordinates every 40 ms (paper §4.5).
const headSamplePeriod = 40 * time.Millisecond

// HeadTrace is a time series of head orientations sampled at a fixed period.
type HeadTrace struct {
	UserID       string
	SamplePeriod time.Duration
	Samples      []geom.Orientation
	// ClassLabel names the trace's motion class ("low", "medium", "high");
	// GenerateHead fills it, imported CSV traces leave it empty. It is the
	// trace-class half of the fleet-rollup cohort key — see ClassName.
	ClassLabel string
}

// ClassName returns the trace-class label for cohort keying: ClassLabel
// when known, else "user" (a recorded trace of unknown motion class).
func (h *HeadTrace) ClassName() string {
	if h.ClassLabel != "" {
		return h.ClassLabel
	}
	return "user"
}

// Duration returns the trace length.
func (h *HeadTrace) Duration() time.Duration {
	if len(h.Samples) == 0 {
		return 0
	}
	return time.Duration(len(h.Samples)-1) * h.SamplePeriod
}

// At returns the orientation at time t, interpolating between samples (yaw
// interpolated along the shortest arc). Times outside the trace clamp to the
// first/last sample.
func (h *HeadTrace) At(t time.Duration) geom.Orientation {
	n := len(h.Samples)
	if n == 0 {
		return geom.Orientation{}
	}
	if t <= 0 {
		return h.Samples[0]
	}
	if h.SamplePeriod <= 0 {
		// Degenerate (zero-length) trace: every sample is co-located at t=0.
		// Without this guard the division below yields +Inf, whose int
		// conversion is undefined — on amd64 it produces a negative index
		// and panics.
		return h.Samples[n-1]
	}
	idx := float64(t) / float64(h.SamplePeriod)
	i := int(idx)
	if i >= n-1 {
		return h.Samples[n-1]
	}
	frac := idx - float64(i)
	a, b := h.Samples[i], h.Samples[i+1]
	return geom.Orientation{
		Yaw:   geom.NormalizeYaw(a.Yaw + geom.YawDelta(a.Yaw, b.Yaw)*frac),
		Pitch: a.Pitch + (b.Pitch-a.Pitch)*frac,
	}
}

// MotionClass describes how actively a synthetic user moves.
type MotionClass int

// Motion classes: the [34] dataset spans users who barely move to users who
// continuously explore the scene.
const (
	MotionLow MotionClass = iota
	MotionMedium
	MotionHigh
)

// String returns the class's lowercase name — the trace-class half of the
// "<trace class>:<network class>" cohort key fleet QoE rollups aggregate by.
func (c MotionClass) String() string {
	if c < MotionLow || c > MotionHigh {
		return "unknown"
	}
	return [...]string{"low", "medium", "high"}[c]
}

// ParseMotionClass is the inverse of MotionClass.String.
func ParseMotionClass(s string) (MotionClass, error) {
	for c := MotionLow; c <= MotionHigh; c++ {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown motion class %q", s)
}

// HeadGenParams parameterizes the synthetic head-motion generator.
type HeadGenParams struct {
	UserID   string
	Class    MotionClass
	Duration time.Duration // default 1 minute
	Seed     int64
}

// GenerateHead synthesizes a head trace: yaw velocity follows a
// mean-reverting (Ornstein-Uhlenbeck-like) process with occasional saccades
// — quick reorientations toward a new point of interest — whose rate and
// magnitude grow with the motion class. Pitch wanders mildly around the
// horizon, as real 360° viewers overwhelmingly look near the equator.
func GenerateHead(p HeadGenParams) *HeadTrace {
	if p.Duration == 0 {
		p.Duration = time.Minute
	}
	rng := rand.New(rand.NewSource(p.Seed))
	n := int(p.Duration/headSamplePeriod) + 1
	samples := make([]geom.Orientation, n)

	var sigmaV, saccadeRate, saccadeMag float64
	switch p.Class {
	case MotionLow:
		sigmaV, saccadeRate, saccadeMag = 4, 0.04, 40
	case MotionMedium:
		sigmaV, saccadeRate, saccadeMag = 10, 0.12, 70
	default: // MotionHigh
		sigmaV, saccadeRate, saccadeMag = 20, 0.25, 110
	}

	dt := headSamplePeriod.Seconds()
	yaw := rng.Float64()*360 - 180
	pitch := rng.NormFloat64() * 8
	vYaw := 0.0 // deg/s
	vPitch := 0.0
	// saccadeLeft counts remaining samples of an in-flight saccade.
	saccadeLeft := 0
	saccadeV := 0.0
	for i := 0; i < n; i++ {
		samples[i] = geom.Orientation{Yaw: geom.NormalizeYaw(yaw), Pitch: geom.ClampPitch(pitch)}
		// Velocity mean-reverts to zero with noise.
		vYaw += (-1.5*vYaw)*dt + rng.NormFloat64()*sigmaV*math.Sqrt(dt)*10
		vPitch += (-2.0*vPitch)*dt + rng.NormFloat64()*sigmaV*0.3*math.Sqrt(dt)*10
		if saccadeLeft > 0 {
			saccadeLeft--
			vYaw += saccadeV
		} else if rng.Float64() < saccadeRate*dt {
			// Launch a ~0.4 s saccade of up to saccadeMag degrees.
			dur := int(0.4 / dt)
			total := (rng.Float64()*2 - 1) * saccadeMag
			saccadeV = total / float64(dur)
			saccadeLeft = dur
		}
		yaw += vYaw * dt
		pitch += vPitch * dt
		// Pull pitch back toward the horizon.
		pitch = max(-60, min(60, pitch-pitch*0.5*dt))
	}
	return &HeadTrace{UserID: p.UserID, SamplePeriod: headSamplePeriod, Samples: samples, ClassLabel: p.Class.String()}
}

// DefaultUserTraces generates n user traces with a deterministic mix of
// motion classes (roughly one third each), mirroring the spread of the [34]
// dataset used for the 10-user sweeps of §4.3.
func DefaultUserTraces(n int) []*HeadTrace {
	out := make([]*HeadTrace, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, GenerateHead(HeadGenParams{
			UserID: fmt.Sprintf("u%d", i+1),
			Class:  MotionClass(i % 3),
			Seed:   int64(1000 + i),
		}))
	}
	return out
}

// YawDisplacementPerSecond returns, for each whole second of the trace, the
// absolute yaw displacement over that second — the Figure 16 metric.
func (h *HeadTrace) YawDisplacementPerSecond() []float64 {
	secs := int(h.Duration() / time.Second)
	out := make([]float64, 0, secs)
	for s := 0; s < secs; s++ {
		a := h.At(time.Duration(s) * time.Second)
		b := h.At(time.Duration(s+1) * time.Second)
		out = append(out, math.Abs(geom.YawDelta(a.Yaw, b.Yaw)))
	}
	return out
}

// MaxDisplacementPerChunk computes, for each chunk, the maximum angular
// displacement any of the given users exhibits between the chunk start and
// any instant within the chunk. The tiled masking strategy fetches tiles
// within this displacement of the predicted viewport (paper §3.2, §4.5).
func MaxDisplacementPerChunk(traces []*HeadTrace, chunkDur time.Duration, numChunks int) []float64 {
	out := make([]float64, numChunks)
	for c := 0; c < numChunks; c++ {
		start := time.Duration(c) * chunkDur
		maxD := 0.0
		for _, h := range traces {
			base := h.At(start)
			for t := start; t <= start+chunkDur; t += h.SamplePeriod {
				d := geom.AngularDistance(base, h.At(t))
				if d > maxD {
					maxD = d
				}
			}
		}
		out[c] = maxD
	}
	return out
}

// WriteHeadCSV writes the trace as "t_ms,yaw,pitch" rows under a
// "# user=… period_ms=…" header (see csvLayout).
func WriteHeadCSV(w io.Writer, h *HeadTrace) error {
	return headCSV.write(w, h.UserID, h.SamplePeriod, len(h.Samples), func(i, c int) float64 {
		if c == 0 {
			return h.Samples[i].Yaw
		}
		return h.Samples[i].Pitch
	})
}

// ReadHeadCSV parses a trace written by WriteHeadCSV: row i's t_ms must be
// i × the period, which is the header's, else the first two rows' gap,
// else 40 ms. A NaN or infinite yaw or pitch is refused: no head points
// there, and the scheduler's geometry has no answer for it.
func ReadHeadCSV(r io.Reader) (*HeadTrace, error) {
	id, period, vals, err := headCSV.read(r)
	if err != nil {
		return nil, err
	}
	h := &HeadTrace{UserID: id, SamplePeriod: period, Samples: make([]geom.Orientation, len(vals)/2)}
	for i := range h.Samples {
		h.Samples[i] = geom.Orientation{Yaw: vals[2*i], Pitch: vals[2*i+1]}.Normalize()
	}
	return h, nil
}
