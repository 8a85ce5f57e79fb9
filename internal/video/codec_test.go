package video

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// decodeJSON is the oracle for DecodeManifest: json.Unmarshal into the wire
// form, then the same validation.
func decodeJSON(b []byte) (*Manifest, error) {
	var j manifestJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return nil, err
	}
	return j.manifest()
}

// checkEncoding requires AppendJSON to produce json.Marshal's bytes (or
// fail exactly when it fails), and DecodeManifest to read them back to the
// manifest the oracle reads.
func checkEncoding(t *testing.T, name string, m *Manifest) {
	t.Helper()
	want, werr := json.Marshal(m.wire())
	got, err := m.AppendJSON([]byte("prefix"))
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s: AppendJSON error %v, json.Marshal error %v", name, err, werr)
	}
	if err != nil {
		return
	}
	if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("%s: encoding differs from json.Marshal (%d vs %d bytes)", name, len(got)-len("prefix"), len(want))
	}
	// What the hand encoder writes, the hand decoder reads.
	var j manifestJSON
	if _, ok := appendCanonical(nil, m); ok && !decodeCanonical(want, &j) {
		t.Fatalf("%s: the canonical decoder declined the canonical encoding", name)
	}
	dec, err := DecodeManifest(want)
	oracle, oerr := decodeJSON(want)
	if (err == nil) != (oerr == nil) || !reflect.DeepEqual(dec, oracle) {
		t.Fatalf("%s: DecodeManifest = (%v), encoding/json = (%v), or the manifests differ", name, err, oerr)
	}
}

// TestManifestEncodingMatchesJSON holds the hand encoder to json.Marshal
// byte for byte: the seven Table 3 videos at 60 chunks, the pre-v3 form
// without checksums, nil against empty arrays, a video id that needs
// escaping, and the float boundaries where json.Marshal switches format.
func TestManifestEncodingMatchesJSON(t *testing.T) {
	for _, m := range Dataset(0) {
		if m.NumChunks != 60 {
			t.Fatalf("%s has %d chunks, want 60", m.VideoID, m.NumChunks)
		}
		checkEncoding(t, m.VideoID, m)
	}

	small := func() *Manifest { return Generate(GenParams{ID: "enc", Rows: 2, Cols: 3, NumChunks: 4, Seed: 5}) }
	m := small()
	m.checksums, m.full360Checksums = nil, nil
	checkEncoding(t, "no checksums", m)
	m.checksums, m.full360Checksums = []uint32{}, []uint32{}
	checkEncoding(t, "empty checksums", m)
	m.MaskDisplacement = nil
	checkEncoding(t, "nil mask displacement", m)
	m.MaskDisplacement, m.sizes, m.blackPSNR = []float64{}, nil, []float64{}
	checkEncoding(t, "empty and nil arrays", m)

	for _, id := range []string{"", "a<b", `q"uote`, `back\slash`, "amp&", "tab\t", "é", " ", "\xff"} {
		m := small()
		m.VideoID = id
		checkEncoding(t, "id "+id, m)
	}

	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 42.5, 1e-6, -1e-6, math.Nextafter(1e-6, 0),
		1e21, -1e21, math.Nextafter(1e21, 0), 1e20, 1e-7, 1.5e-7, 1e-10, 1e-100, 1e100,
		5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64 * 3,
		1e16, math.Nextafter(1e16, 0), 123456789012345678, 0.000001234567890123456,
	}
	m = small()
	for i := 0; i < len(floats); i += len(m.MaskDisplacement) {
		copy(m.MaskDisplacement, floats[i:])
		copy(m.psnr, floats[i:])
		checkEncoding(t, "floats", m)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := small()
		m.pspnr[3] = bad
		checkEncoding(t, "non-finite", m)
	}
}

// FuzzAppendManifestFloat: any float64 bit pattern encodes as json.Marshal
// encodes it (or fails where it fails), and decodes back to the same bits.
func FuzzAppendManifestFloat(f *testing.F) {
	for _, x := range []float64{0, 1e-6, 1e21, 5e-324, math.MaxFloat64, 38.123456789012345, math.NaN()} {
		f.Add(math.Float64bits(x))
	}
	m := newManifest("float", 1, 1, 30, 30, 1)
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		m.MaskDisplacement[0] = x
		want, werr := json.Marshal(m.wire())
		got, err := m.AppendJSON(nil)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%v (%#x): AppendJSON error %v, json.Marshal error %v", x, bits, err, werr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v (%#x): encoded %s, json.Marshal %s", x, bits, got, want)
		}
		back, err := DecodeManifest(got)
		if err != nil {
			t.Fatalf("%v (%#x): decode: %v", x, bits, err)
		}
		if b := math.Float64bits(back.MaskDisplacement[0]); b != bits {
			t.Fatalf("%v (%#x) decoded to %v (%#x)", x, bits, back.MaskDisplacement[0], b)
		}
	})
}
