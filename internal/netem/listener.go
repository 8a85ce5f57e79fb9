package netem

import (
	"net"
	"sync"
)

// PipeListener is an in-memory net.Listener whose connections come from
// its own Dial: each Dial hands the listener the server half of a shaped
// Pipe and returns the client half. It lets a whole multi-process
// topology — clients, balancer, servers — run inside one test process
// with netem shaping on every hop and no real sockets.
type PipeListener struct {
	link Link
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

// NewPipeListener creates a listener whose server-to-client direction is
// shaped by link (the zero Link is unshaped).
func NewPipeListener(link Link) *PipeListener {
	return &PipeListener{link: link, ch: make(chan net.Conn), done: make(chan struct{})}
}

// Dial creates a connection pair, queues the server half for Accept, and
// returns the client half. It fails once the listener is closed.
func (l *PipeListener) Dial() (net.Conn, error) {
	client, server := pipe(l.link)
	select {
	case l.ch <- server:
		return client, nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, net.ErrClosed
	}
}

// Accept waits for the next dialed connection.
func (l *PipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close unblocks Accept and fails subsequent Dials.
func (l *PipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

// Addr implements net.Listener with a synthetic address.
func (l *PipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
