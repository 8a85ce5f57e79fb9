package experiments

import (
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"dragonfly/internal/chaos"
	"dragonfly/internal/client"
	"dragonfly/internal/core"
	"dragonfly/internal/fleettest"
	"dragonfly/internal/netem"
	"dragonfly/internal/player"
	"dragonfly/internal/server"
	"dragonfly/internal/trace"
)

// ExtFaultOutcome summarizes one live session under the fault script.
type ExtFaultOutcome struct {
	Metrics  *player.Metrics
	Counters server.Counters
}

// ExtFaultTolerance runs the robustness extension: live client/server
// sessions over a shaped link that is hard-disconnected mid-stream, once
// with the reconnect/resume machinery on and once with a client that cannot
// redial. Unlike the paper's experiments this exercises the real network
// path in wall-clock time, so it is deliberately small.
func ExtFaultTolerance(_ *Env, w io.Writer) (map[string]ExtFaultOutcome, error) {
	const seed = 1
	m := wireManifest("fault")
	head := wireHead("fault-user", trace.MotionLow, seed)
	// Cut the link early and often: the first disconnect lands while most
	// of the video is still on the server, so giving up is visibly costly.
	cuts := linkFaults(seed, chaos.FaultError, chaos.FaultError, chaos.FaultError)
	link := constLink(8)

	run := func(reconnect bool) (ExtFaultOutcome, error) {
		if err := chaos.Arm(cuts...); err != nil {
			return ExtFaultOutcome{}, err
		}
		defer chaos.Disarm()
		b := fleettest.NewBackend(context.Background(), "fault", m, func() (net.Conn, net.Conn) { return netem.Pipe(link) },
			func(s *server.Server) { s.Heartbeat = 100 * time.Millisecond })
		defer b.Kill()
		dials := 0
		dial := func() (net.Conn, error) {
			dials++
			if !reconnect && dials > 1 {
				return nil, fmt.Errorf("reconnect disabled")
			}
			return b.Dial()
		}
		met, err := client.PlayResilient(dial, "fault", head, core.NewDefault(), client.PlayOptions{Reconnect: wireReconnect(6, seed)})
		if err != nil {
			return ExtFaultOutcome{}, err
		}
		b.Kill() // quiesce before reading the counters
		c, _ := b.Totals()
		return ExtFaultOutcome{Metrics: met, Counters: c}, nil
	}

	resilient, err := run(true)
	if err != nil {
		return nil, err
	}
	cutoff, err := run(false)
	if err != nil {
		return nil, err
	}
	out := map[string]ExtFaultOutcome{"resilient": resilient, "no-reconnect": cutoff}

	fprintf(w, "== Extension: fault tolerance (reconnect + resume) ==\n")
	fprintf(w, "Live sessions over a %d-cut link; same fault script for both variants.\n\n", len(cuts))
	fprintf(w, "%-14s %8s %9s %8s %8s %9s %8s %9s\n",
		"variant", "medPSNR", "masked%", "outage", "resumed", "reTxPrim", "rebuf", "frames")
	for _, name := range sortedNames(out) {
		o := out[name]
		met := o.Metrics
		fprintf(w, "%-14s %7.2f  %8.1f  %7s  %7d  %8d  %7s  %8d\n",
			name, met.MedianScore(), 100*met.MaskingShare(),
			met.OutageDuration.Round(time.Millisecond), met.ResumedTiles,
			excessPrimary(o.Counters, 1, m), met.RebufferDuration.Round(time.Millisecond), met.TotalFrames)
	}
	fprintf(w, "\nresilient: %d disconnects absorbed, %d resumes, %d dedup entries restored\n",
		resilient.Metrics.Disconnects, resilient.Counters.Resumes, resilient.Counters.ResumedItems)
	return out, nil
}
