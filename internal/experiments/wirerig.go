package experiments

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"dragonfly/internal/chaos"
	"dragonfly/internal/client"
	"dragonfly/internal/core"
	"dragonfly/internal/fleettest"
	"dragonfly/internal/ingest"
	"dragonfly/internal/netem"
	"dragonfly/internal/obs"
	"dragonfly/internal/player"
	"dragonfly/internal/server"
	"dragonfly/internal/store"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// What the five networked experiments (ext-fault, chaos, fleet-chaos,
// chaos-soak, qoe-feedback) share beyond internal/fleettest: the video
// they stream, the links they shape, the fault scripts they spread over
// it, the concurrent fan-out of sessions, the wait on the balancer's
// health view, the ingest tier with its traced sessions, and the
// duplicate-send figure. client is imported here and not by fleettest.

// wireChunks is the length, in chunks (= seconds of wall clock per
// session), of the video every networked experiment streams.
const (
	wireChunks   = 3
	wireVideoDur = wireChunks * time.Second
)

// wireManifest generates that video and pre-warms the shared tile store
// once, before anything fans out: every backend (and every cold-restarted
// instance) then serves the already-built frames instead of paying the
// per-manifest framing cost inside the run.
func wireManifest(id string) *video.Manifest {
	m := video.Generate(video.GenParams{
		ID: id, Rows: 6, Cols: 6, NumChunks: wireChunks,
		TargetQP42Mbps: 0.8, TargetQP22Mbps: 6, Seed: 77,
	})
	store.Shared(m)
	return m
}

// constLink is a link held at one rate.
func constLink(mbps float64) netem.Link {
	return netem.Link{Trace: &trace.BandwidthTrace{SamplePeriod: time.Second, Mbps: []float64{mbps}}}
}

// wireHead is one user's seeded head trace over the video.
func wireHead(user string, class trace.MotionClass, seed int64) *trace.HeadTrace {
	return trace.GenerateHead(trace.HeadGenParams{
		UserID: user, Class: class, Duration: wireVideoDur + time.Second, Seed: seed,
	})
}

// wireServer is the configuration every rig server starts from. The short
// write deadline matters over unbuffered pipes: a busy fast-reject and a
// client hello can write head-on, and the deadline turns that into a
// retryable failure instead of a wedge.
func wireServer(s *server.Server) {
	s.Heartbeat = 100 * time.Millisecond
	s.WriteTimeout = 250 * time.Millisecond
}

// wireReconnect is a rig client's reconnect policy: fast seeded backoff and
// a read deadline four server heartbeats long.
func wireReconnect(attempts int, seed int64) client.ReconnectPolicy {
	return client.ReconnectPolicy{
		MaxAttempts: attempts,
		BaseDelay:   20 * time.Millisecond,
		MaxDelay:    200 * time.Millisecond,
		ReadTimeout: 400 * time.Millisecond,
		Seed:        seed,
	}
}

// linkFaults is one netem.link.write fault per kind, the i-th on about the
// 30(i+1)-th write the servers send: spread over the first half of a
// session's ~170 writes, while most of its tiles are still in flight.
// chaos.Schedule staggers each by a seeded 0–7 writes.
func linkFaults(seed int64, kinds ...chaos.Kind) []chaos.Rule {
	rules := make([]chaos.Rule, len(kinds))
	for i, k := range kinds {
		rules[i] = chaos.Rule{Site: "netem.link.write", Kind: k, Count: 1}
	}
	rules = chaos.Schedule(seed, rules)
	for i := range rules {
		rules[i].After += 30 * (i + 1)
	}
	return rules
}

// fanOut runs job(0) … job(n-1) concurrently, waits for all of them and
// returns the lowest-index failure.
func fanOut(n int, job func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = job(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// playFleet runs n concurrent resilient sessions against the fleet and
// waits for all of them: even indexes stream through the balancer, odd
// indexes use static multi-address failover, each starting its rotation
// at a different member for spread. play streams one client's session over
// the dial func, seeded head trace and seeded reconnect policy it is
// handed. The first failure is returned, named by client index.
func playFleet(f *fleettest.Fleet, n int, user string, seed int64, attempts int,
	play func(dial client.DialFunc, head *trace.HeadTrace, rp client.ReconnectPolicy) (*player.Metrics, error)) ([]*player.Metrics, error) {
	mets := make([]*player.Metrics, n)
	err := fanOut(n, func(i int) error {
		dial := client.DialFunc(f.Front.Dial)
		if i%2 == 1 {
			addrs := make([]string, len(f.Backends))
			for j := range addrs {
				addrs[j] = f.Backends[(i+j)%len(addrs)].Addr
			}
			dial = (&client.MultiDialer{Addrs: addrs, Backoff: 20 * time.Millisecond, DialAddr: f.Dial}).Dial
		}
		head := wireHead(fmt.Sprintf("%s-%d", user, i), trace.MotionLow, seed+int64(i))
		rp := wireReconnect(attempts, seed+int64(i))
		rp.WriteTimeout = 250 * time.Millisecond
		met, err := play(dial, head, rp)
		if err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
		mets[i] = met
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mets, nil
}

// awaitHealth polls the fleet balancer every 2 ms until it rates each
// member in want as healthy or not as want says, and reports false if
// limit passes first.
func awaitHealth(f *fleettest.Fleet, limit time.Duration, want map[string]bool) bool {
	for deadline := time.Now().Add(limit); ; time.Sleep(2 * time.Millisecond) {
		held := 0
		for _, st := range f.Balancer.Status() {
			if h, ok := want[st.Addr]; ok && h == st.Healthy {
				held++
			}
		}
		if held == len(want) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// ingestTier is a live ingest service on loopback (one aggregator serving
// /ingest and /rollup) and the pusher that delivers client traces to it:
// the hardened bounded-retry path production producers use, not a bare
// POST. reg holds the ing_* counters of both.
type ingestTier struct {
	reg    *obs.Registry
	agg    *ingest.Aggregator
	url    string
	pusher *ingest.Pusher
}

// startIngest serves an ingest tier until ctx is cancelled.
func startIngest(ctx context.Context, seed int64) (*ingestTier, error) {
	reg := obs.NewRegistry()
	agg := ingest.New(ingest.Config{Obs: reg})
	addr, _, err := agg.Serve(ctx, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	url := "http://" + addr.String()
	return &ingestTier{reg: reg, agg: agg, url: url, pusher: ingest.NewPusher(ingest.PushConfig{
		URL:       url + "/ingest",
		BaseDelay: 20 * time.Millisecond,
		MaxDelay:  200 * time.Millisecond,
		Seed:      seed,
		Obs:       reg,
	})}, nil
}

// play streams one traced resilient session announcing cohort and pushes
// its JSONL trace to the tier.
func (t *ingestTier) play(ctx context.Context, dial client.DialFunc, videoID string,
	head *trace.HeadTrace, rp client.ReconnectPolicy, cohort string) (*player.Metrics, error) {
	tr := obs.NewTrace(0)
	met, err := client.PlayResilient(dial, videoID, head, core.NewDefault(), client.PlayOptions{
		Reconnect: rp, Trace: tr, Cohort: cohort,
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		return nil, err
	}
	if err := t.pusher.Push(ctx, buf.Bytes()); err != nil {
		return nil, fmt.Errorf("push trace: %w", err)
	}
	return met, nil
}

// excessPrimary is the duplicate-send figure: primary transmissions beyond
// one per (client, chunk, tile) slot, summed over every server instance
// that ran. The resume bitmap is the only session state that survives a
// host death, so any excess means a restart or failover re-sent tiles a
// client already held.
func excessPrimary(total server.Counters, clients int, m *video.Manifest) int64 {
	excess := total.PrimarySent - int64(clients)*int64(m.NumChunks*m.NumTiles())
	if excess < 0 {
		excess = 0
	}
	return excess
}
