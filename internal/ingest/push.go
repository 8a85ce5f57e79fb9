package ingest

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"dragonfly/internal/chaos"
	"dragonfly/internal/obs"
	"dragonfly/internal/retry"
)

// ingest.push fails one POST /ingest attempt on the pusher's side — the
// network fault a partitioned or restarting ingest tier surfaces as. The
// Pusher's bounded retry is the recovery under test.
var sitePush = chaos.NewSite("ingest.push")

// PushConfig tunes a Pusher.
type PushConfig struct {
	// URL is the ingest service's /ingest endpoint.
	URL string

	// BaseDelay is the first backoff (default 100 ms), doubling up to
	// MaxDelay (default 2 s) with ±50% deterministic jitter from Seed.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	Seed      int64

	// Obs, when non-nil, receives ing_push_retries / ing_push_drops.
	Obs *obs.Registry
}

const (
	// pushAttempts bounds the tries per Push.
	pushAttempts = 4
	// pushDeadline caps one Push's total wall clock including backoffs: a
	// trace push must never wedge its caller behind a dead tier.
	pushDeadline = 10 * time.Second
	// attemptTimeout caps one HTTP attempt of a push or a poll, so one hung
	// attempt cannot eat a whole push deadline or poll cycle.
	attemptTimeout = 2 * time.Second
)

// tryWithin is retry.Do under a budget that ends at end, with a single
// deadline per attempt: the earlier of attemptTimeout from the attempt's
// start and end. A wait is cut short at end, and no attempt starts past
// it; the call then fails with the last attempt's error and
// context.DeadlineExceeded. The attempt's deadline is the only timer it
// runs: httpClient sets none of its own.
func tryWithin(ctx context.Context, end time.Time, attempts int, wait func(k int) time.Duration, try func(context.Context) error) error {
	var last error
	return retry.Do(ctx, attempts, func(k int) time.Duration {
		return min(wait(k), time.Until(end))
	}, func(int) error {
		now := time.Now()
		if !now.Before(end) {
			return retry.Permanent(fmt.Errorf("%w (%w)", last, context.DeadlineExceeded))
		}
		deadline := now.Add(attemptTimeout)
		if end.Before(deadline) {
			deadline = end
		}
		actx, cancel := context.WithDeadline(ctx, deadline)
		defer cancel()
		last = try(actx)
		return last
	})
}

// Pusher delivers JSONL trace bodies to an ingest tier with bounded
// jittered-backoff retry: transient failures (network errors, 5xx, 429)
// are retried inside the attempt and wall-clock budgets, permanent
// rejections (other 4xx — the body itself is bad) fail immediately, and
// an exhausted budget drops the batch with a count (ing_push_drops)
// rather than blocking the pipeline. Telemetry is lossy by contract;
// what is never acceptable is a telemetry push wedging its producer.
type Pusher struct {
	cfg PushConfig

	mu  sync.Mutex
	rng *rand.Rand

	cPushes  *obs.Counter // ing_pushes: Push calls
	cRetries *obs.Counter // ing_push_retries: extra attempts beyond the first
	cDrops   *obs.Counter // ing_push_drops: batches abandoned after budget exhaustion
}

// NewPusher validates cfg and builds a pusher.
func NewPusher(cfg PushConfig) *Pusher {
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = 100 * time.Millisecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	r := cfg.Obs
	return &Pusher{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(seed)),
		cPushes:  r.Counter("ing_pushes"),
		cRetries: r.Counter("ing_push_retries"),
		cDrops:   r.Counter("ing_push_drops"),
	}
}

// backoff computes the jittered delay before retry attempt (1-based).
func (p *Pusher) backoff(attempt int) time.Duration {
	p.mu.Lock()
	j := p.rng.Float64()
	p.mu.Unlock()
	return retry.Jitter(retry.Exp(p.cfg.BaseDelay, p.cfg.MaxDelay, attempt-1), j)
}

// Push posts one JSONL trace body, retrying transient failures inside the
// configured budgets. The returned error is nil on delivery; otherwise the
// batch was dropped (counted) and the error says why.
func (p *Pusher) Push(ctx context.Context, body []byte) error {
	p.cPushes.Inc()
	err := tryWithin(ctx, time.Now().Add(pushDeadline), pushAttempts, func(k int) time.Duration {
		p.cRetries.Inc()
		return p.backoff(k)
	}, func(ctx context.Context) error { return p.attempt(ctx, body) })
	if err == nil {
		return nil
	}
	p.cDrops.Inc()
	return fmt.Errorf("ingest: push %s: %w", p.cfg.URL, err)
}

// attempt performs one POST under ctx, the attempt's deadline.
func (p *Pusher) attempt(ctx context.Context, body []byte) error {
	if err := sitePush.Err(); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.cfg.URL, bytes.NewReader(body))
	if err != nil {
		return retry.Permanent(err)
	}
	// Chunked, not sized: the transport wraps a sized body in an
	// io.LimitReader, which hides the bytes.Reader's WriteTo and costs a
	// fresh 32 KB io.Copy buffer per push; a chunked body is written in one
	// call. The GetBody NewRequestWithContext set still lets the transport
	// resend the whole body on a kept-alive connection the server closed.
	req.ContentLength = -1
	req.Header.Set("Content-Type", "application/jsonl")
	resp, err := httpClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return nil
	}
	serr := fmt.Errorf("status %s", resp.Status)
	if c := resp.StatusCode; c >= 400 && c < 500 && c != http.StatusTooManyRequests {
		return retry.Permanent(serr) // the server refused the body itself
	}
	return serr
}
