package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"dragonfly/internal/server"
	"dragonfly/internal/video"
)

// TestRunRefusesBadInput: each bad input ends run with an error that names
// it before anything is dialed.
func TestRunRefusesBadInput(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-duration", "0"}, "-duration 0"},
		{[]string{"-motion", "bogus"}, `"bogus"`},
		{[]string{"-scheme", "bogus"}, `unknown scheme "bogus"`},
		{[]string{"-addr", ""}, "-addr"},
		{[]string{"-addr", " , ,"}, "-addr"},
	} {
		if err := run(c.args, io.Discard); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: %v, want an error naming %q", c.args, err, c.want)
		}
	}
}

// TestRunPlaysOneSession streams a one-chunk video from an in-process
// server, through an -addr list whose empty entries are skipped, and reads
// every frame rendered off the printed summary.
func TestRunPlaysOneSession(t *testing.T) {
	m := video.Generate(video.GenParams{ID: "v1", Rows: 6, Cols: 6, NumChunks: 1, Seed: 77})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = server.New(m).Serve(ctx, l) }()

	var out strings.Builder
	args := []string{"-addr", "," + l.Addr().String() + ",", "-video", "v1", "-duration", "1s", "-reconnect-attempts", "0"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("frames rendered   %d\n", m.NumFrames()); !strings.Contains(out.String(), want) {
		t.Errorf("summary lacks %q:\n%s", want, out.String())
	}
}
