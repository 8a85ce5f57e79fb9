package proto

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dragonfly/internal/player"
	"dragonfly/internal/video"
)

// The fixed inputs the wire-frame vectors were written from.
var (
	goldenRequest = Request{Generation: 0xfffffffe, Items: []player.RequestItem{
		{Stream: player.Masking, Chunk: 1, Full360: true},
		{Stream: player.Primary, Chunk: 1, Tile: 7, Quality: 4},
		{Stream: player.Masking, Chunk: 2, Tile: 143},
	}}
	goldenTileData = TileData{Item: player.RequestItem{Stream: player.Primary, Chunk: 3, Tile: 12, Quality: 2},
		Payload: []byte("tile payload\x00\xff")}
	goldenError = `unknown video "ghost"`
)

// goldenManifest is the manifest.1 input: a generated 1x2-tile, one-chunk
// video, small enough to read in a hex dump.
func goldenManifest() *video.Manifest {
	return video.Generate(video.GenParams{ID: "v1", Rows: 1, Cols: 2, NumChunks: 1, Seed: 1})
}

// TestWireGoldenVectors pins the bytes of every frame a session exchanges
// after the handshake, under the <format>.<rev>.golden rule
// TestPongGoldenVectors states: the writer must reproduce each vector byte
// for byte, and each must decode to its input. A manifest decodes to one
// that the writer encodes back to the vector.
func TestWireGoldenVectors(t *testing.T) {
	m := goldenManifest()
	for _, c := range []struct {
		name  string
		write func(*bytes.Buffer) error
		want  *Message // nil: re-encode the decoded manifest instead
	}{
		{"request.1", func(b *bytes.Buffer) error { return WriteRequest(b, goldenRequest) }, &Message{Type: MsgRequest, Request: &goldenRequest}},
		{"tiledata.1", func(b *bytes.Buffer) error { return WriteTileData(b, goldenTileData) }, &Message{Type: MsgTileData, TileData: &goldenTileData}},
		{"manifest.1", func(b *bytes.Buffer) error { return WriteManifest(b, m) }, nil},
		{"ping.1", func(b *bytes.Buffer) error { return WritePing(b) }, &Message{Type: MsgPing}},
		{"bye.1", func(b *bytes.Buffer) error { return WriteBye(b) }, &Message{Type: MsgBye}},
		{"error.1", func(b *bytes.Buffer) error { return WriteError(b, goldenError) }, &Message{Type: MsgError, Error: goldenError}},
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
		if c.want != nil {
			if !reflect.DeepEqual(msg, c.want) {
				t.Errorf("%s decodes as %+v, want %+v", c.name, msg, c.want)
			}
			continue
		}
		buf.Reset()
		if msg.Type != MsgManifest || msg.Manifest == nil {
			t.Fatalf("%s decodes as %+v", c.name, msg)
		}
		if err := WriteManifest(&buf, msg.Manifest); err != nil || !bytes.Equal(buf.Bytes(), vector) {
			t.Errorf("%s: the decoded manifest encodes as % x (%v)", c.name, buf.Bytes(), err)
		}
	}
}

// TestEveryMessageTypeHasVector walks the Msg* constants proto.go declares
// and requires each to have a vector, testdata/<name without Msg, lower
// case>.<rev>.golden, whose frame carries that type. A new message type
// fails here until its bytes are pinned.
func TestEveryMessageTypeHasVector(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "proto.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range f.Decls {
		if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.CONST {
			for _, spec := range g.Specs {
				for _, id := range spec.(*ast.ValueSpec).Names {
					if strings.HasPrefix(id.Name, "Msg") {
						names = append(names, id.Name)
					}
				}
			}
		}
	}
	if len(names) == 0 || names[0] != "MsgHello" {
		t.Fatalf("Msg* constants %v: want the iota block from MsgHello = 1", names)
	}
	for i, name := range names {
		format := strings.ToLower(strings.TrimPrefix(name, "Msg"))
		vectors, err := filepath.Glob("testdata/" + format + ".*.golden")
		if err != nil || len(vectors) == 0 {
			t.Errorf("%s has no testdata/%s.<rev>.golden vector", name, format)
		}
		for _, path := range vectors {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(raw) < frameHeaderSize || MsgType(raw[4]) != MsgType(i+1) {
				t.Errorf("%s is not a %s frame", path, name)
			}
		}
	}
}
