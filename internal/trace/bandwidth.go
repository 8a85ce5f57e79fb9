package trace

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"time"

	"dragonfly/internal/stats"
)

// BandwidthTrace is a throughput time series with piecewise-constant
// bandwidth over fixed sample periods.
type BandwidthTrace struct {
	ID           string
	SamplePeriod time.Duration
	Mbps         []float64
}

// NetClass returns the trace's network class — its ID with any trailing
// "-<seed>" / "_<seed>" instance suffix and window annotation stripped, so
// "belgian-7" and "belgian-12[30s+60s]" both classify as "belgian". It is
// the network-class half of the "<trace class>:<network class>" cohort key
// fleet QoE rollups aggregate by; an anonymous trace classifies as "net".
func (b *BandwidthTrace) NetClass() string {
	id := b.ID
	if i := strings.IndexByte(id, '['); i >= 0 {
		id = id[:i]
	}
	i := len(id)
	for i > 0 && id[i-1] >= '0' && id[i-1] <= '9' {
		i--
	}
	if i > 0 && i < len(id) && (id[i-1] == '-' || id[i-1] == '_') {
		i--
	}
	id = id[:i]
	if id == "" {
		return "net"
	}
	return strings.ToLower(id)
}

// Duration returns the total trace length.
func (b *BandwidthTrace) Duration() time.Duration {
	return time.Duration(len(b.Mbps)) * b.SamplePeriod
}

// at returns the bandwidth in Mbps at time t. Times past the end wrap
// around, so a trace can back a session longer than itself.
func (b *BandwidthTrace) at(t time.Duration) float64 {
	if len(b.Mbps) == 0 {
		return 0
	}
	if t < 0 {
		t = 0
	}
	i := int(t/b.SamplePeriod) % len(b.Mbps)
	return b.Mbps[i]
}

// BytesBetween integrates bandwidth over [t0, t1) and returns the number of
// bytes deliverable in that interval.
func (b *BandwidthTrace) BytesBetween(t0, t1 time.Duration) float64 {
	if t1 <= t0 || len(b.Mbps) == 0 {
		return 0
	}
	total := 0.0
	for t := t0; t < t1; {
		// End of the sample period containing t.
		next := min(t.Truncate(b.SamplePeriod)+b.SamplePeriod, t1)
		total += b.at(t) * 1e6 / 8 * (next - t).Seconds()
		t = next
	}
	return total
}

// TimeToTransfer returns how long it takes to deliver the given number of
// bytes starting at time from, walking the piecewise-constant samples (the
// inverse of BytesBetween). It returns a huge duration if the trace has no
// capacity at all.
func (b *BandwidthTrace) TimeToTransfer(bytes float64, from time.Duration) time.Duration {
	if bytes <= 0 {
		return 0
	}
	if len(b.Mbps) == 0 {
		return time.Duration(math.MaxInt64)
	}
	remaining := bytes
	t := from
	// Cap the walk at an hour of virtual time to guard against zero-rate
	// traces; callers treat anything that long as "never".
	limit := from + time.Hour
	for t < limit {
		next := t.Truncate(b.SamplePeriod) + b.SamplePeriod
		rate := b.at(t) * 1e6 / 8 // bytes per second
		span := (next - t).Seconds()
		capacity := rate * span
		if capacity >= remaining {
			if rate <= 0 {
				t = next
				continue
			}
			return t + time.Duration(remaining/rate*float64(time.Second)) - from
		}
		remaining -= capacity
		t = next
	}
	return time.Hour
}

// Mean returns the average bandwidth in Mbps.
func (b *BandwidthTrace) Mean() float64 { return stats.Mean(b.Mbps) }

// Capped returns a copy with every sample limited to capMbps, as the paper
// caps all samples to 28 Mbps (§4.2).
func (b *BandwidthTrace) Capped(capMbps float64) *BandwidthTrace {
	out := &BandwidthTrace{ID: b.ID, SamplePeriod: b.SamplePeriod, Mbps: make([]float64, len(b.Mbps))}
	for i, v := range b.Mbps {
		out.Mbps[i] = math.Min(v, capMbps)
	}
	return out
}

// BandwidthGenParams parameterizes the synthetic cellular-throughput
// generator: a Markov-modulated process with state-dependent means.
type BandwidthGenParams struct {
	ID           string
	Duration     time.Duration // default 1 minute
	SamplePeriod time.Duration // default 500 ms
	Seed         int64

	// StateMeansMbps and the switching rate define the Markov envelope.
	StateMeansMbps []float64
	SwitchPerSec   float64 // probability per second of changing state
	NoiseFrac      float64 // multiplicative noise std-dev around the state mean
	// DipPerSec adds abrupt near-zero dips (prominent in the Irish 5G data,
	// §4.3 "bandwidth in these traces exhibits abrupt occasional dips").
	DipPerSec float64
	DipLen    time.Duration
}

// GenerateBandwidth synthesizes one bandwidth trace.
func GenerateBandwidth(p BandwidthGenParams) *BandwidthTrace {
	if p.Duration == 0 {
		p.Duration = time.Minute
	}
	if p.SamplePeriod == 0 {
		p.SamplePeriod = 500 * time.Millisecond
	}
	if len(p.StateMeansMbps) == 0 {
		p.StateMeansMbps = []float64{8, 14, 22}
	}
	rng := rand.New(rand.NewSource(p.Seed))
	n := int(p.Duration / p.SamplePeriod)
	mbps := make([]float64, n)
	state := rng.Intn(len(p.StateMeansMbps))
	dt := p.SamplePeriod.Seconds()
	dipLeft := 0
	for i := 0; i < n; i++ {
		if rng.Float64() < p.SwitchPerSec*dt {
			state = rng.Intn(len(p.StateMeansMbps))
		}
		v := p.StateMeansMbps[state] * (1 + rng.NormFloat64()*p.NoiseFrac)
		if dipLeft > 0 {
			dipLeft--
			v = rng.Float64() * 0.8 // near zero
		} else if p.DipPerSec > 0 && rng.Float64() < p.DipPerSec*dt {
			dipLeft = max(1, int(p.DipLen.Seconds()/dt))
			v = rng.Float64() * 0.8
		}
		mbps[i] = math.Max(0.1, v)
	}
	return &BandwidthTrace{ID: p.ID, SamplePeriod: p.SamplePeriod, Mbps: mbps}
}

// The paper's trace-selection thresholds (§4.2), alike for both datasets:
// a trace whose 10th percentile is under minP10Mbps is too slow to ever
// stream the viewport at top quality, one whose high percentile is over
// maxHighMbps fits the full 360°, and every kept sample is capped at
// CapMbps.
const (
	minP10Mbps  = 7
	maxHighMbps = 28
	CapMbps     = 28
)

// FilterOptions is the part of the §4.2 selection rule that differs
// between the datasets.
type FilterOptions struct {
	HighPct float64 // the high percentile: 90 for Belgian, 75 for Irish (footnote 4)
}

// Filter applies the selection rule and cap, returning the surviving traces.
func Filter(traces []*BandwidthTrace, o FilterOptions) []*BandwidthTrace {
	var out []*BandwidthTrace
	for _, tr := range traces {
		if stats.NearestRank(tr.Mbps, 10) < minP10Mbps {
			continue
		}
		if stats.NearestRank(tr.Mbps, o.HighPct) > maxHighMbps {
			continue
		}
		out = append(out, tr.Capped(CapMbps))
	}
	return out
}

// NetProfile is one of the paper's two cellular datasets as the generator
// models it: a name, the generator template (each trace sets its ID, Seed
// and Duration) and the §4.2 selection filter and cap.
type NetProfile struct {
	Name   string
	Params BandwidthGenParams
	Filter FilterOptions
}

// Belgian is the 4G-like profile: the generator mimics the Belgian HTTP/4G
// logs, moderate means with transport-mode-driven state changes, and the
// filter matches §4.2.
var Belgian = NetProfile{
	Name:   "belgian",
	Params: BandwidthGenParams{StateMeansMbps: []float64{9, 13, 18, 24}, SwitchPerSec: 0.25, NoiseFrac: 0.15},
	Filter: FilterOptions{HighPct: 90},
}

// Irish is the 5G-like profile: higher and flatter bandwidth, but with
// abrupt near-zero dips; the filter matches footnote 4.
var Irish = NetProfile{
	Name: "irish",
	Params: BandwidthGenParams{
		StateMeansMbps: []float64{14, 20, 26}, SwitchPerSec: 0.12, NoiseFrac: 0.10,
		DipPerSec: 0.06, DipLen: 1500 * time.Millisecond,
	},
	Filter: FilterOptions{HighPct: 75},
}

// NetProfileByName returns the profile called name: "belgian" or "irish".
func NetProfileByName(name string) (NetProfile, error) {
	for _, p := range []NetProfile{Belgian, Irish} {
		if p.Name == name {
			return p, nil
		}
	}
	return NetProfile{}, fmt.Errorf("unknown profile %q", name)
}

// Generate synthesizes the profile's unfiltered trace for seed, d long (0
// takes the generator's default), with ID "<name>-<seed>".
func (p NetProfile) Generate(seed int64, d time.Duration) *BandwidthTrace {
	params := p.Params
	params.ID = fmt.Sprintf("%s-%d", p.Name, seed)
	params.Seed = seed
	params.Duration = d
	return GenerateBandwidth(params)
}

// filtered generates the profile's traces for the seeds from first up to
// end and keeps those that pass its filter, until n survive.
func (p NetProfile) filtered(n int, first, end int64) []*BandwidthTrace {
	var out []*BandwidthTrace
	for seed := first; len(out) < n && seed < end; seed++ {
		out = append(out, Filter([]*BandwidthTrace{p.Generate(seed, 0)}, p.Filter)...)
	}
	return out
}

// DefaultBelgianTraces returns the first n Belgian traces, from seed 1 on,
// that survive the filter.
func DefaultBelgianTraces(n int) []*BandwidthTrace {
	return Belgian.filtered(n, 1, int64(n)*50)
}

// DefaultIrishTraces returns the first n Irish traces, from seed 10001 on,
// that survive the filter.
func DefaultIrishTraces(n int) []*BandwidthTrace {
	return Irish.filtered(n, 10001, 10001+int64(n)*80)
}

// WriteBandwidthCSV writes the trace as "t_ms,mbps" rows under a
// "# id=… period_ms=…" header (see csvLayout).
func WriteBandwidthCSV(w io.Writer, b *BandwidthTrace) error {
	return bandwidthCSV.write(w, b.ID, b.SamplePeriod, len(b.Mbps), func(i, _ int) float64 { return b.Mbps[i] })
}

// ReadBandwidthCSV parses a trace written by WriteBandwidthCSV: row i's
// t_ms must be i × the period, which is the header's, else the first two
// rows' gap, else 500 ms. It refuses a negative, NaN or infinite rate,
// which no link can be paced by.
func ReadBandwidthCSV(r io.Reader) (*BandwidthTrace, error) {
	id, period, mbps, err := bandwidthCSV.read(r)
	if err != nil {
		return nil, err
	}
	return &BandwidthTrace{ID: id, SamplePeriod: period, Mbps: mbps}, nil
}
