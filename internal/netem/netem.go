// Package netem emulates a bandwidth-limited network path over real
// net.Conn connections — the role Mahimahi plays in the paper's testbed
// (§4.5). Writes through a shaped connection are paced so the delivered
// throughput follows a bandwidth trace, with optional propagation delay.
package netem

import (
	"net"
	"sync"
	"time"

	"dragonfly/internal/trace"
)

// Link describes the emulated path.
type Link struct {
	// Trace drives the available bandwidth over time (wrapping at its end).
	Trace *trace.BandwidthTrace
	// Latency is a fixed one-way propagation delay added to every byte.
	Latency time.Duration
}

// Conn wraps a net.Conn, pacing Write against the link's bandwidth trace.
// Reads pass through untouched, so shaping one direction means wrapping the
// connection on the sender of that direction.
type Conn struct {
	net.Conn
	link  Link
	start time.Time

	mu sync.Mutex
	// virtual is the transmission clock: the instant (relative to start)
	// at which the link finishes sending everything accepted so far.
	virtual time.Duration
}

// chunkSize is the pacing granularity: smaller chunks follow the trace more
// faithfully at the cost of more sleeps.
const chunkSize = 16 << 10

// newConn wraps inner with the given link shaping.
func newConn(inner net.Conn, link Link) *Conn {
	return &Conn{Conn: inner, link: link, start: time.Now()}
}

// Write paces p through the emulated link, then writes it to the inner
// connection.
func (c *Conn) Write(p []byte) (int, error) {
	if c.link.Trace == nil {
		return c.Conn.Write(p)
	}
	written := 0
	for written < len(p) {
		n := len(p) - written
		if n > chunkSize {
			n = chunkSize
		}
		c.mu.Lock()
		now := time.Since(c.start)
		if c.virtual < now {
			c.virtual = now
		}
		c.virtual += c.link.Trace.TimeToTransfer(float64(n), c.virtual)
		target := c.virtual
		c.mu.Unlock()

		if wait := target + c.link.Latency - time.Since(c.start); wait > 0 {
			time.Sleep(wait)
		}
		m, err := c.Conn.Write(p[written : written+n])
		written += m
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// Listener wraps accepted connections with link shaping (the shaping
// applies to the server's writes — the downstream direction a streaming
// workload cares about).
type Listener struct {
	net.Listener
	link Link
}

// WrapListener shapes every connection accepted from l.
func WrapListener(l net.Listener, link Link) *Listener {
	return &Listener{Listener: l, link: link}
}

// Accept waits for the next connection and wraps it.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return newConn(c, l.link), nil
}

// Pipe returns an in-memory client/server connection pair whose
// server-to-client direction is shaped by the link. It is the unit-test
// substitute for a real shaped TCP path.
func Pipe(link Link) (client, server net.Conn) {
	c, s := net.Pipe()
	return c, newConn(s, link)
}
