package experiments

import (
	"fmt"
	"sync"
	"time"

	"dragonfly/internal/client"
	"dragonfly/internal/fleettest"
	"dragonfly/internal/netem"
	"dragonfly/internal/player"
	"dragonfly/internal/server"
	"dragonfly/internal/store"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// What the four networked experiments (chaos, fleet-chaos, chaos-soak,
// qoe-feedback) share beyond internal/fleettest: the video they stream,
// the links they shape, the client fan-out over a fleet, and the
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

// playFleet runs n concurrent resilient sessions against the fleet and
// waits for all of them: even indexes stream through the balancer, odd
// indexes use static multi-address failover, each starting its rotation
// at a different member for spread. play streams one client's session over
// the dial func, seeded head trace and seeded reconnect policy it is
// handed. The first failure is returned, named by client index.
func playFleet(f *fleettest.Fleet, n int, user string, seed int64, attempts int,
	play func(dial client.DialFunc, head *trace.HeadTrace, rp client.ReconnectPolicy) (*player.Metrics, error)) ([]*player.Metrics, error) {
	mets := make([]*player.Metrics, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
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
			mets[i], errs[i] = play(dial, head, rp)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
	}
	return mets, nil
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
