package player

import (
	"errors"
	"time"

	"dragonfly/internal/obs"
)

// transfer is the item at the head of the modelled server's send queue.
type transfer struct {
	item      RequestItem
	size      int64
	remaining float64
	started   time.Duration
}

// Run plays the session to completion in virtual time and returns its
// metrics: a Playback driven over a modelled server — the tile server's
// SendQueue with no budgets, and one transfer in flight on the
// trace-driven link. A request takes effect the instant it is decided
// (zero RTT, DESIGN.md §7).
func Run(cfg Config) (*Metrics, error) {
	pb, end, err := simulate(cfg)
	if err != nil {
		return nil, err
	}
	return pb.Finish(end), nil
}

// simulate is Run up to Finish: it returns the session at its last
// instant, over but not yet finished.
func simulate(cfg Config) (*Playback, time.Duration, error) {
	if cfg.Bandwidth == nil {
		return nil, 0, errors.New("player: config requires Bandwidth")
	}
	pb, err := NewPlayback(cfg)
	if err != nil {
		return nil, 0, err
	}
	m, bw := cfg.Manifest, cfg.Bandwidth
	pb.met.TraceID = bw.ID
	// Trace header: the cohort key (trace class x network class) fleet
	// rollups aggregate this session under.
	cfg.Trace.Add(obs.SessionEvent(m.VideoID, cfg.Head.ClassName()+":"+bw.NetClass()))

	var (
		now      time.Duration
		queue    = NewSendQueue(m)
		gen      uint32
		tr       transfer
		inflight bool
	)
	for !pb.Over(now) {
		next := pb.NextEvent()
		if !inflight {
			if it, ok := queue.Pop(); ok {
				size := it.Size(m)
				tr, inflight = transfer{it, size, float64(size), now}, true
			}
		}
		// Move the link to the next control event or to the end of the
		// transfer in flight, whichever comes first: at most one delivery,
		// then Advance.
		if inflight {
			if done := now + bw.TimeToTransfer(tr.remaining, now); done <= next {
				// Render availability is gated on decode completion when a
				// decoder model is configured; throughput sampling still
				// uses delivery time.
				pb.Deliver(done, tr.item, tr.size, done-tr.started, cfg.Decoder.DecodeDone(done, tr.size))
				next, inflight = done, false
			} else {
				tr.remaining -= bw.BytesBetween(now, next)
			}
		}
		now = next
		if fetch, decided := pb.Advance(now); decided {
			gen++
			queue.Install(gen, fetch, 0, 0)
		}
	}
	return pb, now, nil
}
