// Package wire is the byte vocabulary of everything this repository
// persists or exchanges — segment files, WAL records, /v1/shard frames and
// their partials — and the only code in the product tree that reads or
// writes a varint:
//
//	uvarint   base-128, least significant group first, minimal: the one
//	          encoding of a value is its shortest, so whatever decodes
//	          re-encodes to the bytes that were read
//	signed    zigzag (0, -1, 1, -2, … → 0, 1, 2, 3, …) as a uvarint
//	bytes     uvarint length, then that many bytes
//	list      uvarint count, then the elements
//	u32, u64  fixed-width little-endian words, where a reader has to index
//	          without decoding
//
// A Reader's first failure sticks: every later read returns a zero value
// and Done reports it, so a decoder is written as straight-line reads and
// checked once. An announced count is held against the bytes that remain
// before a caller allocates for it.
//
// The package imports nothing of this module.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// MaxVarintLen is the most bytes a uvarint takes.
const MaxVarintLen = binary.MaxVarintLen64

// Reader decodes one input front to back.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader reads b from its first byte.
func NewReader(b []byte) Reader { return Reader{b: b} }

// ReaderAt reads b from offset off on, so that Offset stays an offset
// into b; an off outside b is the reader's first failure. (The error is
// a fixed one so that the constructor inlines: a mapped segment makes two
// readers per document it touches.)
func ReaderAt(b []byte, off int) (r Reader) {
	r.b, r.off = b, off
	if uint(off) > uint(len(b)) {
		r.off, r.err = len(b), errOutside
	}
	return r
}

var errOutside = errors.New("offset outside the input")

// Failf records a failure the caller found in what it read, unless one
// is on record already, and ends the input.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.off = len(r.b)
}

// Err is the first failure so far.
func (r *Reader) Err() error { return r.err }

// Done is the decode's verdict: the first failure, or an error when bytes
// are left over.
func (r *Reader) Done() error {
	if n := len(r.b) - r.off; n > 0 {
		r.Failf("%d trailing bytes at offset %d", n, r.off)
	}
	return r.err
}

// Offset is the position of the next read in the input the reader was
// made over; after a failure, the input's length.
func (r *Reader) Offset() int { return r.off }

// Uvarint reads one minimally encoded uvarint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	switch {
	case n == 0:
		return r.truncated()
	case n < 0 || (n > 1 && r.b[r.off+n-1] == 0): // past 64 bits, or padded
		r.Failf("malformed varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// truncated fails the reader for want of bytes; its 0 is what the read
// returns.
func (r *Reader) truncated() uint64 {
	r.Failf("truncated at offset %d", r.off)
	return 0
}

// Int reads a non-negative integer.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if v > math.MaxInt {
		r.Failf("integer overflow before offset %d", r.off)
		return 0
	}
	return int(v)
}

// Signed reads a zigzag-encoded integer.
func (r *Reader) Signed() int {
	v := r.Uvarint()
	return int(int64(v>>1) ^ -int64(v&1))
}

// Count reads the announced number of elements that follow, each at least
// size bytes long, and refuses one the remaining bytes cannot hold — before
// the caller allocates for it.
func (r *Reader) Count(size int) int {
	n := r.Uvarint()
	if left := len(r.b) - r.off; n > uint64(left/size) {
		r.Failf("%d elements announced at offset %d, %d bytes left", n, r.off, left)
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string, aliasing the input.
func (r *Reader) Bytes() []byte {
	n := r.Count(1)
	r.off += n
	return r.b[r.off-n : r.off : r.off]
}

// String reads a length-prefixed byte string into a string of its own.
func (r *Reader) String() string { return string(r.Bytes()) }

// U32 reads a fixed-width little-endian word.
func (r *Reader) U32() uint32 {
	if len(r.b)-r.off < 4 {
		return uint32(r.truncated())
	}
	r.off += 4
	return binary.LittleEndian.Uint32(r.b[r.off-4:])
}

// U64 reads a fixed-width little-endian double word.
func (r *Reader) U64() uint64 {
	if len(r.b)-r.off < 8 {
		return r.truncated()
	}
	r.off += 8
	return binary.LittleEndian.Uint64(r.b[r.off-8:])
}

// List reads a list led by its length, each element at least size bytes
// long.
func List[T any](r *Reader, size int, elem func(*Reader) T) []T {
	list := make([]T, r.Count(size))
	for i := range list {
		list[i] = elem(r)
	}
	return list
}

// Ints reads a list of non-negative integers.
func (r *Reader) Ints() []int { return List(r, 1, (*Reader).Int) }

// AppendUvarint appends v as a uvarint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendInt appends a non-negative integer.
func AppendInt(b []byte, v int) []byte { return binary.AppendUvarint(b, uint64(v)) }

// AppendSigned appends v zigzag-encoded.
func AppendSigned(b []byte, v int) []byte {
	return binary.AppendUvarint(b, uint64(int64(v)<<1^int64(v)>>63))
}

// AppendBytes appends s led by its length.
func AppendBytes[S ~string | ~[]byte](b []byte, s S) []byte {
	return append(AppendInt(b, len(s)), s...)
}

// AppendList appends list led by its length.
func AppendList[T any](b []byte, list []T, elem func([]byte, T) []byte) []byte {
	b = AppendInt(b, len(list))
	for _, e := range list {
		b = elem(b, e)
	}
	return b
}

// AppendInts appends a list of non-negative integers.
func AppendInts(b []byte, vs []int) []byte { return AppendList(b, vs, AppendInt) }

// AppendU32 appends a fixed-width little-endian word.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU64 appends a fixed-width little-endian double word.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
