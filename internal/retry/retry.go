// Package retry holds the one capped doubling and the one ±50 % spread
// every retry loop in the networked tiers takes its delays from: the
// client's reconnect backoff and per-address dial penalty, the trace
// pusher's backoff and the feedback poller's retry delay. The callers
// keep their own budgets, defaults and RNGs; only the arithmetic is
// shared, so two tiers cannot drift apart on what "doubling up to a cap"
// means.
package retry

import "time"

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
