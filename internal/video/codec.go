package video

import (
	"bytes"
	"math"
	"slices"
	"strconv"

	"dragonfly/internal/jsonscan"
)

// The hand-written codec of the manifest's canonical JSON form: the bytes
// json.Marshal writes for manifestJSON — its fields in declaration order, no
// whitespace, nil arrays as null, the checksum arrays omitted when empty —
// with a video id of printable ASCII that needs no escaping. The manifest is
// the one multi-megabyte message of a session, sent and parsed once per
// handshake, and reflection was most of both. encoding/json stays behind
// both directions for everything else, and is the oracle the tests hold this
// codec to byte for byte.

// appendCanonical appends the manifest's canonical JSON to dst and reports
// whether it could. It declines (returning dst unchanged) a video id
// json.Marshal would escape and a non-finite metric, which json.Marshal
// rejects.
func appendCanonical(dst []byte, m *Manifest) ([]byte, bool) {
	size, ok := m.canonicalBound()
	if !ok {
		return dst, false
	}
	b := slices.Grow(dst, size)
	b = append(b, `{"video_id":"`...)
	b = append(b, m.VideoID...)
	b = append(b, `","rows":`...)
	b = strconv.AppendInt(b, int64(m.Rows), 10)
	b = append(b, `,"cols":`...)
	b = strconv.AppendInt(b, int64(m.Cols), 10)
	b = append(b, `,"fps":`...)
	b = strconv.AppendInt(b, int64(m.FPS), 10)
	b = append(b, `,"chunk_frames":`...)
	b = strconv.AppendInt(b, int64(m.ChunkFrames), 10)
	b = append(b, `,"num_chunks":`...)
	b = strconv.AppendInt(b, int64(m.NumChunks), 10)
	b = appendInts(append(b, `,"qps":`...), qps[:])
	b = appendInts(append(b, `,"sizes":`...), m.sizes)
	b = appendFloats(append(b, `,"psnr":`...), m.psnr)
	b = appendFloats(append(b, `,"pspnr":`...), m.pspnr)
	b = appendFloats(append(b, `,"black_psnr":`...), m.blackPSNR)
	b = appendInts(append(b, `,"full360":`...), m.full360)
	b = appendFloats(append(b, `,"mask_displacement":`...), m.MaskDisplacement)
	if len(m.checksums) > 0 {
		b = appendInts(append(b, `,"checksums":`...), m.checksums)
	}
	if len(m.full360Checksums) > 0 {
		b = appendInts(append(b, `,"full360_checksums":`...), m.full360Checksums)
	}
	return append(b, '}'), true
}

// canonicalBound reports whether the manifest has a canonical encoding — a
// video id json.Marshal writes unescaped, and finite metrics — and bounds
// its length from above, so the encoder grows its buffer once. Integers
// are counted digit by digit; a float takes at most 19 bytes in 'f' format
// below 1e16 (17 significant digits, the point and a sign) and 26
// anywhere else.
func (m *Manifest) canonicalBound() (int, bool) {
	for i := 0; i < len(m.VideoID); i++ {
		switch c := m.VideoID[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return 0, false
		}
	}
	// Keys, punctuation, the five scalars and qps take under 400 bytes.
	n := 400 + len(m.VideoID) + 11*(len(m.checksums)+len(m.full360Checksums))
	for _, xs := range [][]int64{m.sizes, m.full360} {
		n += 4
		for _, x := range xs {
			n += 2 // a comma and the first digit
			if x < 0 {
				n++
			}
			for ; x >= 10 || x <= -10; x /= 10 {
				n++
			}
		}
	}
	for _, xs := range [][]float64{m.psnr, m.pspnr, m.blackPSNR, m.MaskDisplacement} {
		n += 4
		for _, x := range xs {
			switch a := math.Abs(x); {
			case a < 1e16 && (a >= 1 || a == 0):
				n += 20
			case a <= math.MaxFloat64:
				n += 27
			default: // NaN or ±Inf
				return 0, false
			}
		}
	}
	return n, true
}

// appendInts appends a JSON array of integers, or null for a nil slice.
func appendInts[T int | int64 | uint32](b []byte, xs []T) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// appendFloats appends a JSON array of finite floats, or null for a nil
// slice.
func appendFloats(b []byte, xs []float64) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, x)
	}
	return append(b, ']')
}

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest decimal that round-trips, in 'f' format, or in 'e' format below
// 1e-6 and from 1e21 in magnitude with a one-digit negative exponent
// unpadded (e-7, not e-07).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// decodeCanonical decodes a canonical-form body into j and reports whether
// it did. It accepts a subset of what json.Unmarshal accepts and decodes it
// to the same value, each number and string read by internal/jsonscan; on
// false j holds garbage and the caller resets it. Every value is scanned
// once, and every array is allocated once at its final length, counted
// from its separators.
func decodeCanonical(b []byte, j *manifestJSON) bool {
	d := decoder{b: b}
	var id []byte
	ok := d.key(`{"video_id":`) && scan(&d, &id, jsonscan.Str) &&
		d.key(`,"rows":`) && scan(&d, &j.Rows, jsonscan.Int) &&
		d.key(`,"cols":`) && scan(&d, &j.Cols, jsonscan.Int) &&
		d.key(`,"fps":`) && scan(&d, &j.FPS, jsonscan.Int) &&
		d.key(`,"chunk_frames":`) && scan(&d, &j.ChunkFrames, jsonscan.Int) &&
		d.key(`,"num_chunks":`) && scan(&d, &j.NumChunks, jsonscan.Int) &&
		d.key(`,"qps":`) && array(&d, &j.QPs, jsonscan.Int) &&
		d.key(`,"sizes":`) && array(&d, &j.Sizes, jsonscan.Int64) &&
		d.key(`,"psnr":`) && array(&d, &j.PSNR, jsonscan.Float) &&
		d.key(`,"pspnr":`) && array(&d, &j.PSPNR, jsonscan.Float) &&
		d.key(`,"black_psnr":`) && array(&d, &j.BlackPSNR, jsonscan.Float) &&
		d.key(`,"full360":`) && array(&d, &j.Full360, jsonscan.Int64) &&
		d.key(`,"mask_displacement":`) && array(&d, &j.MaskDisplacement, jsonscan.Float)
	if !ok {
		return false
	}
	if d.key(`,"checksums":`) && !array(&d, &j.Checksums, jsonscan.Uint32) {
		return false
	}
	if d.key(`,"full360_checksums":`) && !array(&d, &j.Full360Checksums, jsonscan.Uint32) {
		return false
	}
	j.VideoID = string(id)
	return d.i == len(b)-1 && b[d.i] == '}'
}

// decoder is a cursor over a canonical body.
type decoder struct {
	b []byte
	i int
}

// key consumes s if the body continues with it.
func (d *decoder) key(s string) bool {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// scan reads one value at the cursor into v with read, a jsonscan reader.
func scan[T any](d *decoder, v *T, read func([]byte, int) (T, int, bool)) bool {
	x, i, ok := read(d.b, d.i)
	*v, d.i = x, i
	return ok
}

// array reads null (a nil slice) or a JSON array whose elements read reads
// into a slice allocated once: its length is the number of commas before
// the closing bracket, plus one. An element needs a byte and a separator,
// so an array claiming more elements than its bytes can hold is refused
// before anything is allocated.
func array[T any](d *decoder, v *[]T, read func([]byte, int) (T, int, bool)) bool {
	if d.key("null") {
		*v = nil
		return true
	}
	if !d.key("[") {
		return false
	}
	b, i := d.b, d.i
	end := bytes.IndexByte(b[i:], ']')
	if end < 0 {
		return false
	}
	if end == 0 {
		d.i++
		*v = []T{}
		return true
	}
	n := bytes.Count(b[i:i+end], []byte{','}) + 1
	if 2*n-1 > end {
		return false
	}
	xs := make([]T, n)
	for k := range xs {
		var ok bool
		if xs[k], i, ok = read(b, i); !ok || i >= len(b) {
			return false
		}
		sep := byte(',')
		if k == n-1 {
			sep = ']'
		}
		if b[i] != sep {
			return false
		}
		i++
	}
	d.i, *v = i, xs
	return true
}
