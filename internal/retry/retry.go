// Package retry holds the one retry loop of the networked tiers, Do — the
// client's opening dial and reconnector, the trace pusher and the feedback
// poller call it instead of keeping their own sleep, attempt count and
// deadline check — and the arithmetic their waits come from: Exp, the one
// capped doubling, and Jitter, a ±50 % spread around it. Jitter is the
// pusher's and the poller's spread; the client's reconnect delay draws its
// own, [d, 1.5d), so no retry comes sooner than the doubling. Callers keep
// their own defaults, budgets and RNGs.
package retry

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Do calls try until it succeeds, returns an error marked Permanent, has
// been called attempts times (at least once), or ctx ends. try(k) is call
// k, from 0; before each call after the first Do waits wait(k), cut short
// if ctx ends. It returns nil, or the last error try returned (unmarked),
// wrapped together with ctx.Err() when ctx ended first.
func Do(ctx context.Context, attempts int, wait func(k int) time.Duration, try func(k int) error) error {
	var err error
	for k := 0; k == 0 || k < attempts; k++ {
		if k > 0 {
			Sleep(ctx, wait(k))
		}
		if ctx.Err() != nil {
			if err == nil {
				return ctx.Err()
			}
			return fmt.Errorf("%w (%w)", err, ctx.Err())
		}
		if err = try(k); err == nil {
			return nil
		}
		var p permanent
		if errors.As(err, &p) {
			return p.err
		}
	}
	return err
}

// Permanent marks a non-nil err as final: Do returns it without retrying.
func Permanent(err error) error { return permanent{err} }

type permanent struct{ err error }

func (p permanent) Error() string { return p.err.Error() }

// Sleep waits d, or until ctx ends if that comes first.
func Sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// Exp returns base doubled doublings times and capped at max. A
// non-positive doublings returns base (capped); doubling stops at the
// first value at or past max, so a large count cannot overflow.
func Exp(base, max time.Duration, doublings int) time.Duration {
	d := base
	for i := 0; i < doublings && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// Jitter spreads d over [d/2, 3d/2) by the uniform draw u in [0, 1):
// d/2 + u·d, mean d.
func Jitter(d time.Duration, u float64) time.Duration {
	return d/2 + time.Duration(u*float64(d))
}
