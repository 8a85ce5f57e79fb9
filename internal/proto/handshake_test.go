package proto

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

// goldenHello and goldenResume are the fixed inputs the handshake vectors
// were written from. Rev 1 of each format is the layout before the cohort
// label: the same input with Cohort empty, which the writer still emits
// byte for byte.
var (
	goldenHello  = Hello{VideoID: "v1", Cohort: "high:5g"}
	goldenResume = Resume{Version: 3, VideoID: "v1", Held: heldSummary(), Cohort: "high:5g"}
)

// TestHandshakeGoldenVectors pins the wire bytes of the two frames that
// open a session, under the <format>.<rev>.golden rule TestPongGoldenVectors
// states: hello.1 and resume.1 end where the video id or the held bitmaps
// do, and hello.2 and resume.2 append the length-prefixed cohort. Both revs
// are current (an empty cohort is omitted from the wire), so the writer
// must reproduce every vector, and every vector must decode to its input.
func TestHandshakeGoldenVectors(t *testing.T) {
	hello1, resume1 := goldenHello, goldenResume
	hello1.Cohort, resume1.Cohort = "", ""
	for _, c := range []struct {
		name  string
		write func(*bytes.Buffer) error
		want  Message
	}{
		{"hello.1", func(b *bytes.Buffer) error { return WriteHello(b, hello1) }, Message{Type: MsgHello, Hello: &hello1}},
		{"hello.2", func(b *bytes.Buffer) error { return WriteHello(b, goldenHello) }, Message{Type: MsgHello, Hello: &goldenHello}},
		{"resume.1", func(b *bytes.Buffer) error { return WriteResume(b, resume1) }, Message{Type: MsgResume, Resume: &resume1}},
		{"resume.2", func(b *bytes.Buffer) error { return WriteResume(b, goldenResume) }, Message{Type: MsgResume, Resume: &goldenResume}},
	} {
		vector, err := os.ReadFile("testdata/" + c.name + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.write(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(buf.Bytes(), vector) {
			t.Errorf("%s: writer emits % x, want % x", c.name, buf.Bytes(), vector)
		}
		msg, err := ReadMessage(bytes.NewReader(vector))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(*msg, c.want) {
			t.Errorf("%s decodes as %+v, want %+v", c.name, msg, c.want)
		}
	}
}
