package proto

import (
	"bytes"
	"os"
	"testing"
)

func TestPongRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := Pong{Draining: true, ActiveConns: 1234}
	if err := WritePong(&buf, want); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgPing {
		t.Fatalf("type = %d, want MsgPing", msg.Type)
	}
	if msg.Ping == nil {
		t.Fatal("status pong decoded with nil Ping")
	}
	if *msg.Ping != want {
		t.Errorf("pong = %+v, want %+v", *msg.Ping, want)
	}
}

func TestPlainPingHasNoStatus(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePing(&buf); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgPing {
		t.Fatalf("type = %d, want MsgPing", msg.Type)
	}
	if msg.Ping != nil {
		t.Errorf("heartbeat ping decoded a status body: %+v", msg.Ping)
	}
}

func TestShortPingBodyIgnored(t *testing.T) {
	// A MsgPing body shorter than the pong layout is treated as a plain
	// heartbeat, not an error: forward/backward ping compatibility is
	// "ignore what you do not understand".
	var buf bytes.Buffer
	if err := writeFrame(&buf, MsgPing, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Ping != nil {
		t.Errorf("short ping body decoded as pong: %+v", msg.Ping)
	}
}

// goldenPong is the fixed input both pong vectors were written from; the
// older layout has no room for its QueueBytes.
var goldenPong = Pong{Draining: true, ActiveConns: 1234, QueueBytes: 5<<20 + 7}

// TestPongGoldenVectors pins the status pong's wire bytes. Vectors live in
// testdata/ as <format>.<rev>.golden: <format> is the message or artefact
// in lower case, <rev> numbers its layouts from 1, oldest first, and each
// file holds the exact bytes that layout's writer emitted for the format's
// fixed input. The current writer must reproduce the highest rev byte for
// byte; every lower rev must still decode (or be refused with a typed
// version error), and the format's fuzzer seeds from all of them.
// pong.1 is the 5-byte body (drain flag, session count); pong.2 appends
// QueueBytes.
func TestPongGoldenVectors(t *testing.T) {
	v1, err := os.ReadFile("testdata/pong.1.golden")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := os.ReadFile("testdata/pong.2.golden")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePong(&buf, goldenPong); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), v2) {
		t.Fatalf("WritePong = % x, want pong.2 vector % x", buf.Bytes(), v2)
	}

	old := goldenPong
	old.QueueBytes = 0
	for _, c := range []struct {
		name string
		raw  []byte
		want Pong
	}{{"pong.1", v1, old}, {"pong.2", v2, goldenPong}} {
		msg, err := ReadMessage(bytes.NewReader(c.raw))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if msg.Type != MsgPing || msg.Ping == nil || *msg.Ping != c.want {
			t.Fatalf("%s decodes as %+v, want pong %+v", c.name, msg, c.want)
		}
	}

	// A body longer than any layout we know (a later field) still decodes
	// the prefix we do.
	body := append(append([]byte(nil), v2[frameHeaderSize:len(v2)-trailerSize]...), 0xAB, 0xCD)
	buf.Reset()
	if err := writeFrame(&buf, MsgPing, body); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Ping == nil || *msg.Ping != goldenPong {
		t.Fatalf("longer pong body decodes as %+v, want %+v", msg.Ping, goldenPong)
	}
}
