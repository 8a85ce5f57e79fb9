package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"

	"dragonfly/internal/chaos"
	"dragonfly/internal/netem"
	"dragonfly/internal/proto"
	"dragonfly/internal/video"
)

// readRawFrame reads one whole frame — length prefix, type, body, trailer —
// into buf, without decoding it.
func readRawFrame(c net.Conn, buf []byte) ([]byte, error) {
	buf = append(buf[:0], 0, 0, 0, 0)
	if _, err := io.ReadFull(c, buf); err != nil {
		return buf, err
	}
	n := int(binary.BigEndian.Uint32(buf)) + 4 // type and body, then the trailer
	buf = append(buf, make([]byte, n)...)
	_, err := io.ReadFull(c, buf[4:])
	return buf, err
}

// rawSession is one session whose client side sends a hello and reads the
// manifest frame raw; end says goodbye and waits for the handler.
type rawSession struct {
	client net.Conn
	done   chan error
}

func openRaw(s *Server, videoID string, client, srv net.Conn) *rawSession {
	rs := &rawSession{client: client, done: make(chan error, 1)}
	go func() {
		defer srv.Close()
		rs.done <- s.handleConn(context.Background(), srv)
	}()
	go func() { _ = proto.WriteHello(client, proto.Hello{VideoID: videoID}) }()
	return rs
}

func (rs *rawSession) end(t testing.TB) {
	t.Helper()
	_ = proto.WriteBye(rs.client)
	drainConn(rs.client)
	if err := <-rs.done; err != nil {
		t.Errorf("session ended with %v", err)
	}
	rs.client.Close()
}

// TestLinkCorruptLeavesHeldFrameIntact: a netem.link.write corrupt fault on
// one session's manifest write flips a bit of what that session receives
// and nothing of the frame the store holds: a session starting while the
// first still holds the frame receives WriteManifest's bytes.
func TestLinkCorruptLeavesHeldFrameIntact(t *testing.T) {
	m := testManifest()
	s := New(m)
	s.Heartbeat = -1
	var want bytes.Buffer
	if err := proto.WriteManifest(&want, m); err != nil {
		t.Fatal(err)
	}
	// The corrupt kind flips bit (hit number) of the write: burn 40 hits
	// so the flip lands in the body, not the length prefix.
	armServer(t, chaos.Rule{Site: "netem.link.write", Kind: chaos.FaultCorrupt, After: 40, Count: 1})
	burnC, burnS := linkPipe(t)
	drainConn(burnC)
	for range 40 {
		if _, err := burnS.Write([]byte{0}); err != nil {
			t.Fatal(err)
		}
	}
	burnS.Close()

	c1, srv1 := linkPipe(t)
	first := openRaw(s, m.VideoID, c1, srv1)
	bad, err := readRawFrame(c1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proto.ReadMessage(bytes.NewReader(bad)); !errors.Is(err, proto.ErrChecksum) {
		t.Fatalf("the faulted manifest write read back with %v, want a checksum error", err)
	}
	if chaos.Injections("netem.link.write") != 1 {
		t.Fatal("the corrupt fault did not fire on the manifest write")
	}

	c2, srv2 := linkPipe(t)
	second := openRaw(s, m.VideoID, c2, srv2)
	got, err := readRawFrame(c2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("the next session's manifest frame differs from WriteManifest's: the fault reached the held frame")
	}
	second.end(t)
	first.end(t)
}

// linkPipe returns both ends of one connection through an unshaped
// netem.PipeListener, so the server's writes pass the netem.link.write
// failpoint.
func linkPipe(t *testing.T) (client, server net.Conn) {
	t.Helper()
	l := netem.NewPipeListener(netem.Link{})
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	client, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	return client, <-accepted
}

// BenchmarkSessionStart times the server's end of a session start: one
// Hello in, and the raw manifest frame of v8 at 60 chunks (2.4 MB) read back
// over net.Pipe into a reused buffer, undecoded, then the goodbye. Sessions
// run one after another, so the store holds the frame only while one runs,
// as on a server seeing one client at a time.
func BenchmarkSessionStart(b *testing.B) {
	var m *video.Manifest
	for _, e := range video.Table3 {
		if e.ID == "v8" {
			m = video.Generate(video.GenParams{ID: e.ID, TargetQP42Mbps: e.QP42Mbps, TargetQP22Mbps: e.QP22Mbps, MotionLevel: e.MotionLevel, Seed: e.Seed})
		}
	}
	s := New(m)
	s.Heartbeat = -1
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, srv := net.Pipe()
		rs := openRaw(s, m.VideoID, c, srv)
		var err error
		if buf, err = readRawFrame(c, buf); err != nil {
			b.Fatal(err)
		}
		rs.end(b)
	}
}
