package main

import (
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dragonfly/internal/chaos"
	"dragonfly/internal/client"
	"dragonfly/internal/core"
	"dragonfly/internal/proto"
	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

// TestRunRefusesBadInput: each bad input ends run with an error that names
// it, before the daemon binds an address. Its signal channel is closed, so
// a run that accepts the input drains and returns nil instead of serving.
func TestRunRefusesBadInput(t *testing.T) {
	t.Cleanup(chaos.Disarm)
	dir := t.TempDir()
	badFaults := filepath.Join(dir, "faults.csv")
	if err := os.WriteFile(badFaults, []byte("at_s,kind\n1,error\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	unknownSite := filepath.Join(dir, "site.csv")
	rules := "site,kind,after,every,count,delay_ms,frac\nno.such.site,error,0,0,1,0,0\n"
	if err := os.WriteFile(unknownSite, []byte(rules), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-chunks", "0"}, "-chunks 0"},
		{[]string{"-max-queue-bytes", "-1"}, "-max-queue-bytes -1"},
		{[]string{"-max-conns", "-1"}, "-max-conns -1"},
		{[]string{"-write-stall-budget", "-1s"}, "-write-stall-budget -1s"},
		{[]string{"-qoe-target", "+Inf"}, "-qoe-target +Inf"},
		{[]string{"-qoe-target", "-Inf"}, "-qoe-target -Inf"},
		{[]string{"-qoe-target", "NaN"}, "-qoe-target NaN"},
		{[]string{"-bw", filepath.Join(dir, "missing.csv")}, "missing.csv"},
		{[]string{"-faults", badFaults}, "fault rules"},
		{[]string{"-faults", unknownSite}, "no.such.site"},
	} {
		stop := make(chan os.Signal)
		close(stop)
		args := append([]string{"-addr", "127.0.0.1:0", "-chunks", "1"}, c.args...)
		err := run(args, stop, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
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

// readHook calls hook after each Read, so a test learns when the server
// has answered a handshake.
type readHook struct {
	net.Conn
	hook func()
}

func (c readHook) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.hook()
	return n, err
}

// TestRunDrainsThenExits: the first signal drains — a new hello gets the
// retryable "server draining" while the open session plays out to its last
// frame — and the second ends run with nil.
func TestRunDrainsThenExits(t *testing.T) {
	sigs, out, done := make(chan os.Signal, 2), make(lineWriter, 8), make(chan error, 1)
	go func() { done <- run([]string{"-addr", "127.0.0.1:0", "-chunks", "1"}, sigs, out) }()
	var addr string
	for addr == "" {
		select {
		case line := <-out:
			if rest, ok := strings.CutPrefix(line, "dragonfly server on "); ok {
				addr, _, _ = strings.Cut(rest, " ")
			}
		case err := <-done:
			t.Fatalf("run returned before it served: %v", err)
		case <-time.After(5 * time.Second):
			t.Fatal("run printed no address")
		}
	}

	admitted := make(chan struct{})
	var once sync.Once
	dial := func() (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return readHook{c, func() { once.Do(func() { close(admitted) }) }}, nil
	}
	type result struct {
		frames int
		err    error
	}
	played := make(chan result, 1)
	go func() {
		head := trace.GenerateHead(trace.HeadGenParams{UserID: "drain", Class: trace.MotionLow, Duration: 2 * time.Second, Seed: 1})
		met, err := client.PlayResilient(dial, "v1", head, core.NewDefault(), client.PlayOptions{})
		if err != nil {
			played <- result{err: err}
			return
		}
		played <- result{frames: met.TotalFrames}
	}()
	select {
	case <-admitted:
	case <-time.After(5 * time.Second):
		t.Fatal("the session got no handshake reply")
	}

	sigs <- os.Interrupt
	deadline := time.Now().Add(2 * time.Second)
	for busy := ""; busy != proto.BusyText("server draining"); {
		if time.Now().After(deadline) {
			t.Fatalf("no drain rejection after the first signal (last reply %q)", busy)
		}
		busy = hello(t, addr)
	}

	r := <-played
	if want := video.Table3[0].Manifest(1).NumFrames(); r.err != nil || r.frames != want {
		t.Fatalf("the open session: %d frames, %v; want all %d", r.frames, r.err, want)
	}
	sigs <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after the second signal: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run still serving after the second signal")
	}
}

// hello opens a session on addr and returns the server's error text, or ""
// when the server sent a manifest.
func hello(t *testing.T, addr string) string {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A draining server answers without reading, so the write may fail
	// while the rejection waits to be read.
	_ = proto.WriteHello(c, proto.Hello{VideoID: "v1"})
	msg, err := proto.ReadMessage(c)
	if err != nil {
		t.Fatal(err)
	}
	return msg.Error
}
