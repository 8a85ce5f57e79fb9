package proto

import "time"

// StallMeter is the slowloris policy both tiers apply to a peer that accepts
// bytes too slowly (server.WriteStallBudget, balancer.SpliceStallBudget):
// each write may block for Allowance — a tenth of the budget, at least 1 ms
// — for free, the time beyond it accumulates, and the peer is cut off once
// that excess passes the budget. It bounds the integral a per-write deadline
// cannot: a peer that drains each write just inside its deadline can pin
// queue memory for as long as it likes. The meter holds no clock — callers
// time their writes — and a budget of zero or less never exhausts.
type StallMeter struct {
	budget, allowance, spent time.Duration
}

// NewStallMeter returns a meter with nothing spent.
func NewStallMeter(budget time.Duration) StallMeter {
	return StallMeter{budget: budget, allowance: max(budget/10, time.Millisecond)}
}

// Spend charges a write that blocked for d and reports whether the
// accumulated excess now exceeds the budget.
func (m *StallMeter) Spend(d time.Duration) (exhausted bool) {
	m.spent += max(d-m.allowance, 0)
	return m.budget > 0 && m.spent > m.budget
}

// Remaining is the budget not yet spent, negative once exceeded.
func (m *StallMeter) Remaining() time.Duration { return m.budget - m.spent }

// Allowance is the free blocking time of each write.
func (m *StallMeter) Allowance() time.Duration { return m.allowance }
