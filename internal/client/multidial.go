package client

import (
	"fmt"
	"net"
	"sync"
	"time"

	"dragonfly/internal/retry"
)

// MultiDialer is a DialFunc source over a list of server addresses — the
// static-failover counterpart to fronting the fleet with a balancer. Each
// Dial starts one position further around the list than the last, so
// sessions spread across members and a reconnect that keeps getting
// protocol-level busy rejections (a draining backend accepts the TCP dial
// but refuses the resume) still rotates onto a healthy member. Addresses
// whose dials fail are put on per-address exponential backoff: eligible
// addresses are tried first and backed-off ones only as a last resort, in
// order of soonest retry time, so a single dead member costs at most one
// failed dial per backoff window instead of one per session.
//
// The zero value is not usable; set Addrs. All methods are safe for
// concurrent use by multiple sessions sharing one dialer.
type MultiDialer struct {
	// Addrs is the server list; order sets the rotation sequence.
	Addrs []string
	// Timeout bounds each individual dial (default DefaultDialTimeout).
	Timeout time.Duration
	// Backoff is the first per-address penalty after a failed dial
	// (default 100 ms); it doubles per consecutive failure up to
	// maxDialBackoff and resets on success.
	Backoff time.Duration
	// DialAddr overrides the network dial, for tests and in-memory rigs;
	// nil uses DialTimeout (TCP).
	DialAddr func(addr string, timeout time.Duration) (net.Conn, error)

	mu    sync.Mutex
	next  int
	state map[string]*addrState
}

type addrState struct {
	fails     int
	notBefore time.Time
}

// Dial connects to the next healthy-looking address, matching DialFunc. It
// fails only when every address refuses.
func (d *MultiDialer) Dial() (net.Conn, error) {
	candidates, err := d.plan()
	if err != nil {
		return nil, err
	}
	timeout := d.Timeout
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	dialAddr := d.DialAddr
	if dialAddr == nil {
		dialAddr = DialTimeout
	}
	var lastErr error
	for _, addr := range candidates {
		conn, err := dialAddr(addr, timeout)
		if err == nil {
			d.noteResult(addr, true)
			return conn, nil
		}
		d.noteResult(addr, false)
		lastErr = err
	}
	return nil, fmt.Errorf("client: all %d addresses failed: %w", len(candidates), lastErr)
}

// plan rotates the start position and orders the addresses: eligible ones
// in rotation order first, backed-off ones after, soonest retry first.
func (d *MultiDialer) plan() ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.Addrs) == 0 {
		return nil, fmt.Errorf("client: multi dialer has no addresses")
	}
	start := d.next % len(d.Addrs)
	d.next = start + 1
	now := time.Now()
	eligible := make([]string, 0, len(d.Addrs))
	var backedOff []string
	for i := 0; i < len(d.Addrs); i++ {
		addr := d.Addrs[(start+i)%len(d.Addrs)]
		if st := d.state[addr]; st != nil && now.Before(st.notBefore) {
			backedOff = append(backedOff, addr)
			continue
		}
		eligible = append(eligible, addr)
	}
	for i := 1; i < len(backedOff); i++ {
		for j := i; j > 0 && d.state[backedOff[j]].notBefore.Before(d.state[backedOff[j-1]].notBefore); j-- {
			backedOff[j], backedOff[j-1] = backedOff[j-1], backedOff[j]
		}
	}
	return append(eligible, backedOff...), nil
}

func (d *MultiDialer) noteResult(addr string, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if ok {
		delete(d.state, addr)
		return
	}
	if d.state == nil {
		d.state = make(map[string]*addrState)
	}
	st := d.state[addr]
	if st == nil {
		st = &addrState{}
		d.state[addr] = st
	}
	st.notBefore = time.Now().Add(d.penalty(st.fails))
	st.fails++
}

// maxDialBackoff caps the per-address penalty.
const maxDialBackoff = 2 * time.Second

// penalty is how long an address sits out after its (fails+1)-th
// consecutive failed dial.
func (d *MultiDialer) penalty(fails int) time.Duration {
	base := d.Backoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	return retry.Exp(base, maxDialBackoff, fails)
}
