package video

import (
	"hash/crc32"
	"testing"
)

// zeroBuf is the literal zero block the oracles below checksum byte by
// byte; ExtendZeros must agree with it without ever reading one.
var zeroBuf [64 << 10]byte

// literalExtend is the byte oracle for ExtendZeros: crc32.Update over n
// literal zero bytes, one zeroBuf-sized block at a time.
func literalExtend(sum uint32, n int64) uint32 {
	for n > 0 {
		c := n
		if c > int64(len(zeroBuf)) {
			c = int64(len(zeroBuf))
		}
		sum = crc32.Update(sum, payloadCastagnoli, zeroBuf[:c])
		n -= c
	}
	return sum
}

// maxFrameSize mirrors proto.MaxFrameSize (proto imports video): the
// longest run of zeros the store ever frames.
const maxFrameSize = 64 << 20

// TestExtendZerosMatchesLiteral walks every power of two up to the frame
// cap, and both neighbours, from an empty and a non-empty prefix.
func TestExtendZerosMatchesLiteral(t *testing.T) {
	lengths := []int64{0, 1}
	for p := int64(2); p <= maxFrameSize; p <<= 1 {
		lengths = append(lengths, p-1, p, p+1)
	}
	prefix := crc32.Checksum([]byte("dragonfly tile head"), payloadCastagnoli)
	for _, n := range lengths {
		for _, sum := range []uint32{0, prefix} {
			if got, want := ExtendZeros(sum, n), literalExtend(sum, n); got != want {
				t.Errorf("ExtendZeros(%08x, %d) = %08x, literal zeros give %08x", sum, n, got, want)
			}
		}
	}
	if got := ExtendZeros(prefix, -3); got != prefix {
		t.Errorf("negative length changed the sum: %08x -> %08x", prefix, got)
	}
}

// TestExtendZerosAdditive checks ext(ext(s,a),b) == ext(s,a+b) where the
// literal oracle cannot go: totals beyond 2^32 and beyond the period.
func TestExtendZerosAdditive(t *testing.T) {
	s := crc32.Checksum([]byte{0xD5, 0x01}, payloadCastagnoli)
	for _, ab := range [][2]int64{
		{1<<32 - 1, 2},
		{3<<30 + 12345, 5<<30 + 678},
		{zeroPeriod - 1, 1},
		{zeroPeriod, zeroPeriod + 7},
		{1 << 40, 1<<62 - 1<<40},
		{maxFrameSize, 1 << 33},
	} {
		a, b := ab[0], ab[1]
		if got, want := ExtendZeros(ExtendZeros(s, a), b), ExtendZeros(s, a+b); got != want {
			t.Errorf("ext(ext(s,%d),%d) = %08x, ext(s,%d) = %08x", a, b, got, a+b, want)
		}
	}
}

// TestZeroOpsPeriod pins the fact ExtendZeros reduces lengths by: 2^31-1
// zero bytes — every operator applied once — map each register bit, and so
// every register, to itself.
func TestZeroOpsPeriod(t *testing.T) {
	ExtendZeros(0, 1) // build the operators
	for bit := 0; bit < 32; bit++ {
		r := uint32(1) << bit
		for k := range zeroOps {
			r = applyZeroOp(&zeroOps[k], r)
		}
		if r != 1<<bit {
			t.Fatalf("2^31-1 zero bytes map register bit %d to %08x", bit, r)
		}
	}
}

// FuzzExtendZeros is the differential test: any prefix, any run length up
// to 4 MiB, against crc32.Update over a literal zero buffer.
func FuzzExtendZeros(f *testing.F) {
	f.Add([]byte(nil), uint32(0))
	f.Add([]byte("head"), uint32(1))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, uint32(len(zeroBuf))+1)
	f.Add([]byte{0}, uint32(4<<20))
	f.Fuzz(func(t *testing.T, prefix []byte, n uint32) {
		n %= 4<<20 + 1
		sum := crc32.Checksum(prefix, payloadCastagnoli)
		want := literalExtend(sum, int64(n))
		if got := ExtendZeros(sum, int64(n)); got != want {
			t.Fatalf("ExtendZeros(crc(%x), %d) = %08x, want %08x", prefix, n, got, want)
		}
	})
}
