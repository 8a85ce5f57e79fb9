// Package popsim is the population-scale sweep engine: it simulates
// hundreds of thousands to millions of streaming sessions under a fixed
// memory bound. Where internal/sim plays a handful of curated traces and
// retains every session's metrics, popsim samples a *synthetic population*
// — thousands of distinct users drawn from the head-motion and bandwidth
// generator parameter space (internal/trace) under configured motion- and
// network-class mixtures — and folds each finished session's metrics
// straight into per-(scheme, cohort) quantile sketches (internal/stats),
// discarding the session. Aggregation memory is O(schemes × cohorts ×
// bins), independent of the session count.
//
// Determinism is a hard contract, not a best effort: the same seed
// produces an identical merged rollup for any worker count and any shard
// layout. Two ingredients make that hold. Session i's traces depend only
// on (seed, i) — a splitmix64-derived seed chain, never on execution
// order — and all fold state is integral (uint64 sketch bins plus a
// fixed-point micro-unit sum), so concurrent folds and shard merges
// commute exactly, with none of the order sensitivity of float
// accumulation.
package popsim

import (
	"fmt"
	"time"

	"dragonfly/internal/trace"
)

// Seed-chain salts: each independently sampled quantity of a member draws
// from its own splitmix64 stream so adding a quantity never perturbs the
// others.
const (
	saltMotion  = 0xA24BAED4963EE407
	saltNet     = 0x9FB21C651E98DF25
	saltHead    = 0xD6E8FEB86659FD93
	saltBW      = 0xC2B2AE3D27D4EB4F
	saltBWScale = 0x165667B19E3779F9
)

// mix64 is the splitmix64 finalizer: a cheap, high-quality bijection used
// to derive independent per-session seeds from (base seed, index, salt).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// MotionWeight is one motion class's share of the population.
type MotionWeight struct {
	Class  trace.MotionClass
	Weight float64
}

// NetClass is one network class of the population: a trace profile — its
// name, generator template and §4.2 filter — widened by a per-member mean
// jitter into a parameter distribution. The profile's Name keys the class
// in cohorts; it must be lowercase with no trailing digits so the
// generated trace IDs ("<name>-<index>") classify back to it via
// BandwidthTrace.NetClass. Its Params' ID, Seed and Duration are
// overwritten per member, and a draw its filter rejects is
// deterministically resampled (bounded attempts).
type NetClass struct {
	trace.NetProfile

	// MeanScale jitters each member's state means by a factor drawn
	// uniformly from [1-MeanScale, 1+MeanScale], so members of one class
	// are distinct users, not reruns of one generator config.
	MeanScale float64
}

// NetWeight is one network class's share of the population.
type NetWeight struct {
	Class  NetClass
	Weight float64
}

// Model is the synthetic population: mixtures over motion and network
// classes plus the per-session trace duration, all derived from one seed.
// Sample(i) is a pure function of (Model, i) — any worker, any shard, any
// execution order reproduces the same member.
type Model struct {
	Motion   []MotionWeight
	Nets     []NetWeight
	Duration time.Duration // head + bandwidth trace length (default 30 s)
	Seed     int64
}

// maxFilterAttempts bounds the §4.2 resampling loop per member; the last
// draw is accepted (capped) if none passes, keeping Sample total.
const maxFilterAttempts = 32

// BelgianClass returns the 4G-like network class: trace.Belgian, with
// each member's means jittered by up to ±12 %. Params shares the profile's
// StateMeansMbps slice: Sample copies the means before it scales them, so
// no member writes through to the profile.
func BelgianClass() NetClass { return NetClass{trace.Belgian, 0.12} }

// irishClass returns the 5G-like network class: trace.Irish, with each
// member's means jittered by up to ±10 %.
func irishClass() NetClass { return NetClass{trace.Irish, 0.10} }

// DefaultModel is the paper-shaped population: motion classes in equal
// thirds (mirroring the [34] dataset spread) over an even Belgian-4G /
// Irish-5G network split.
func DefaultModel(seed int64) Model {
	return Model{
		Motion: []MotionWeight{
			{Class: trace.MotionLow, Weight: 1},
			{Class: trace.MotionMedium, Weight: 1},
			{Class: trace.MotionHigh, Weight: 1},
		},
		Nets: []NetWeight{
			{Class: BelgianClass(), Weight: 1},
			{Class: irishClass(), Weight: 1},
		},
		Seed: seed,
	}
}

// validate reports whether the model can sample members.
func (m Model) validate() error {
	if len(m.Motion) == 0 || len(m.Nets) == 0 {
		return fmt.Errorf("popsim: model needs at least one motion and one network class")
	}
	var motion, nets float64
	for _, w := range m.Motion {
		if w.Weight < 0 {
			return fmt.Errorf("popsim: negative motion weight %g", w.Weight)
		}
		motion += w.Weight
	}
	for _, w := range m.Nets {
		if w.Weight < 0 {
			return fmt.Errorf("popsim: negative network weight %g", w.Weight)
		}
		if w.Class.Name == "" {
			return fmt.Errorf("popsim: network class needs a name")
		}
		nets += w.Weight
	}
	if motion <= 0 || nets <= 0 {
		return fmt.Errorf("popsim: mixture weights sum to zero")
	}
	return nil
}

// Member is one sampled user-session of the population.
type Member struct {
	Index     int
	Head      *trace.HeadTrace
	Bandwidth *trace.BandwidthTrace
	Cohort    string // "<motion class>:<network class>"
}

// duration returns the effective trace length.
func (m Model) duration() time.Duration {
	if m.Duration > 0 {
		return m.Duration
	}
	return 30 * time.Second
}

// rand01 draws the member's uniform [0, 1) variate for the given salt.
func (m Model) rand01(i int, salt uint64) float64 {
	return float64(m.bits(i, salt)>>11) / (1 << 53)
}

// bits derives the member's 64-bit stream value for the given salt.
func (m Model) bits(i int, salt uint64) uint64 {
	return mix64(mix64(uint64(m.Seed)^salt) + uint64(i)*0x9E3779B97F4A7C15)
}

// pickMotion resolves the member's motion class from the mixture.
func (m Model) pickMotion(i int) trace.MotionClass {
	var total float64
	for _, w := range m.Motion {
		total += w.Weight
	}
	r := m.rand01(i, saltMotion) * total
	for _, w := range m.Motion {
		if r < w.Weight {
			return w.Class
		}
		r -= w.Weight
	}
	return m.Motion[len(m.Motion)-1].Class
}

// pickNet resolves the member's network class from the mixture.
func (m Model) pickNet(i int) NetClass {
	var total float64
	for _, w := range m.Nets {
		total += w.Weight
	}
	r := m.rand01(i, saltNet) * total
	for _, w := range m.Nets {
		if r < w.Weight {
			return w.Class
		}
		r -= w.Weight
	}
	return m.Nets[len(m.Nets)-1].Class
}

// Sample materializes population member i: a fresh head trace and
// bandwidth trace whose parameters and seeds are pure functions of
// (Model, i). Safe for concurrent use — the model is read-only and all
// state is derived locally.
func (m Model) Sample(i int) Member {
	motion := m.pickMotion(i)
	net := m.pickNet(i)
	dur := m.duration()

	head := trace.GenerateHead(trace.HeadGenParams{
		UserID:   fmt.Sprintf("p%d", i),
		Class:    motion,
		Duration: dur,
		Seed:     int64(m.bits(i, saltHead)),
	})

	// Per-member parameter jitter: one mean-scale factor for all attempts,
	// so resampling explores seeds, not a drifting envelope.
	scale := 1.0
	if net.MeanScale > 0 {
		scale = 1 + (m.rand01(i, saltBWScale)*2-1)*net.MeanScale
	}
	params := net.Params
	params.ID = fmt.Sprintf("%s-%d", net.Name, i)
	params.Duration = dur
	if scale != 1 {
		means := make([]float64, len(params.StateMeansMbps))
		for k, v := range params.StateMeansMbps {
			means[k] = v * scale
		}
		params.StateMeansMbps = means
	}

	var bw *trace.BandwidthTrace
	for attempt := 0; attempt < maxFilterAttempts; attempt++ {
		params.Seed = int64(m.bits(i, saltBW+uint64(attempt)*0x8CB92BA72F3D8DD7))
		bw = trace.GenerateBandwidth(params)
		if kept := trace.Filter([]*trace.BandwidthTrace{bw}, net.Filter); len(kept) == 1 {
			bw = kept[0]
			break
		}
		if attempt == maxFilterAttempts-1 {
			// No draw passed: accept the last one capped, keeping Sample
			// total and deterministic.
			bw = bw.Capped(trace.CapMbps)
		}
	}

	return Member{
		Index:     i,
		Head:      head,
		Bandwidth: bw,
		Cohort:    head.ClassName() + ":" + bw.NetClass(),
	}
}
