package main

import (
	"context"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"dragonfly/internal/proto"
	"dragonfly/internal/server"
	"dragonfly/internal/video"
)

// TestRunRefusesBadInput: each bad input ends run with an error that names
// it, before anything binds. The context is already done, so a run that
// accepts its input returns nil instead of serving.
func TestRunRefusesBadInput(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "-backends"},
		{[]string{"-backends", " , ,"}, "-backends"},
		{[]string{"-backends", "127.0.0.1:7361@127.0.0.1:7362"}, "addr@admin"},
		{[]string{"-backends", "127.0.0.1:7361", "-splice-stall-budget", "-1s"}, "-splice-stall-budget -1s"},
	} {
		args := append([]string{"-addr", "127.0.0.1:0"}, c.args...)
		if err := run(ctx, args, io.Discard); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: %v, want an error naming %q", c.args, err, c.want)
		}
	}
}

// lineWriter hands each line run prints to its channel.
type lineWriter chan string

func (w lineWriter) Write(p []byte) (int, error) {
	for _, line := range strings.Split(strings.TrimSuffix(string(p), "\n"), "\n") {
		w <- line
	}
	return len(p), nil
}

// TestRunRoutesHello: a hello sent to the address run prints reaches the
// one backend, and its manifest comes back through the splice.
func TestRunRoutesHello(t *testing.T) {
	m := video.Generate(video.GenParams{ID: "v1", Rows: 6, Cols: 6, NumChunks: 1, Seed: 77})
	backend, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = server.New(m).Serve(ctx, backend) }()

	out, done := make(lineWriter, 1), make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-backends", backend.Addr().String()}, out)
	}()
	var addr string
	select {
	case line := <-out:
		rest, ok := strings.CutPrefix(line, "dragonfly balancer on ")
		if !ok {
			t.Fatalf("run printed %q, want its address", line)
		}
		addr, _, _ = strings.Cut(rest, " ")
	case err := <-done:
		t.Fatalf("run returned before it served: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("run printed no address")
	}

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	if err := proto.WriteHello(c, proto.Hello{VideoID: "v1"}); err != nil {
		t.Fatal(err)
	}
	msg, err := proto.ReadMessage(c)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != proto.MsgManifest || msg.Manifest == nil || msg.Manifest.VideoID != "v1" || msg.Manifest.NumFrames() != m.NumFrames() {
		t.Fatalf("reply %+v, want v1's manifest", msg)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run still serving after cancel")
	}
}
