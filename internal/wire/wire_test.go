package wire

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestRoundTrip: every append helper's bytes read back to the value, and
// the reader ends exactly where the writer did.
func TestRoundTrip(t *testing.T) {
	signed := []int{0, -1, 1, -2, 63, -64, 64, math.MaxInt32, math.MinInt32, math.MaxInt, math.MinInt}
	uvarints := []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, math.MaxUint32, math.MaxUint64}
	var b []byte
	for _, v := range signed {
		b = AppendSigned(b, v)
	}
	for _, v := range uvarints {
		b = AppendUvarint(b, v)
	}
	b = AppendBytes(AppendBytes(b, "walk\naway"), []byte{})
	b = AppendInts(AppendInt(b, math.MaxInt), []int{7, 0, 300})
	b = AppendU64(AppendU32(b, 0xdeadbeef), math.MaxUint64-1)
	b = AppendList(b, []string{"a", ""}, AppendBytes[string])

	r := NewReader(b)
	for _, want := range signed {
		if got := r.Signed(); got != want {
			t.Errorf("Signed() = %d, want %d", got, want)
		}
	}
	for _, want := range uvarints {
		if got := r.Uvarint(); got != want {
			t.Errorf("Uvarint() = %d, want %d", got, want)
		}
	}
	if s, e := r.String(), r.Bytes(); s != "walk\naway" || e == nil || len(e) != 0 {
		t.Errorf("String(), Bytes() = %q, %q", s, e)
	}
	if n, l := r.Int(), r.Ints(); n != math.MaxInt || len(l) != 3 || l[0] != 7 || l[1] != 0 || l[2] != 300 {
		t.Errorf("Int(), Ints() = %d, %v", n, l)
	}
	if w, d := r.U32(), r.U64(); w != 0xdeadbeef || d != math.MaxUint64-1 {
		t.Errorf("U32(), U64() = %x, %x", w, d)
	}
	if l := List(&r, 1, (*Reader).String); len(l) != 2 || l[0] != "a" || l[1] != "" {
		t.Errorf("List(String) = %q", l)
	}
	if r.Offset() != len(b) {
		t.Errorf("Offset() = %d after reading all %d bytes", r.Offset(), len(b))
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done() = %v", err)
	}
	// Zigzag keeps small magnitudes small: the extremes take the full ten
	// bytes, -1 and 1 one byte.
	if got := AppendSigned(nil, math.MinInt64); len(got) != MaxVarintLen {
		t.Errorf("MinInt64 encodes in %d bytes", len(got))
	}
	if got := AppendSigned(AppendSigned(nil, -1), 1); !bytes.Equal(got, []byte{1, 2}) {
		t.Errorf("-1, 1 encode as %v", got)
	}
}

// TestRefusals: each way an input can be wrong, by the read that must
// notice it.
func TestRefusals(t *testing.T) {
	huge := AppendUvarint(nil, 1<<60)
	for _, tc := range []struct {
		name string
		in   []byte
		read func(r *Reader)
		want string
	}{
		{"empty uvarint", nil, func(r *Reader) { r.Uvarint() }, "truncated"},
		{"uvarint cut after a continuation byte", []byte{0x80}, func(r *Reader) { r.Uvarint() }, "truncated"},
		{"zero spelt in two bytes", []byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }, "malformed"},
		{"one spelt in three bytes", []byte{0x81, 0x80, 0x00}, func(r *Reader) { r.Signed() }, "malformed"},
		{"eleven-byte uvarint", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uvarint() }, "malformed"},
		{"ten-byte uvarint past 64 bits", append(bytes.Repeat([]byte{0xff}, 9), 0x02), func(r *Reader) { r.Uvarint() }, "malformed"},
		{"int past MaxInt", AppendUvarint(nil, math.MaxInt+1), func(r *Reader) { r.Int() }, "overflow"},
		{"count past MaxInt", AppendUvarint(nil, math.MaxUint64), func(r *Reader) { r.Count(1) }, "announced"},
		{"count of 2^60", huge, func(r *Reader) { r.Count(1) }, "announced"},
		{"3 one-byte elements, 2 bytes left", []byte{3, 0, 0}, func(r *Reader) { r.Count(1) }, "announced"},
		{"2 two-byte elements, 3 bytes left", []byte{2, 0, 0, 0}, func(r *Reader) { r.Count(2) }, "announced"},
		{"2 three-byte elements, 5 bytes left", []byte{2, 0, 0, 0, 0, 0}, func(r *Reader) { r.Count(3) }, "announced"},
		{"1 sixteen-byte element, 15 bytes left", append([]byte{1}, make([]byte, 15)...), func(r *Reader) { r.Count(16) }, "announced"},
		{"bytes longer than the input", []byte{4, 'a', 'b', 'c'}, func(r *Reader) { r.Bytes() }, "announced"},
		{"list of 2^60 ints", huge, func(r *Reader) { r.Ints() }, "announced"},
		{"three-byte u32", []byte{1, 2, 3}, func(r *Reader) { r.U32() }, "truncated"},
		{"seven-byte u64", make([]byte, 7), func(r *Reader) { r.U64() }, "truncated"},
		{"trailing byte", []byte{5, 0}, func(r *Reader) { r.Int() }, "trailing"},
		{"caller's failure", []byte{5, 9}, func(r *Reader) { r.Failf("flag %d", r.Int()) }, "flag 5"},
	} {
		r := NewReader(tc.in)
		tc.read(&r)
		if err := r.Done(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Done() = %v, want an error about %q", tc.name, err, tc.want)
		}
		if r.Offset() != len(tc.in) {
			t.Errorf("%s: Offset() = %d after the failure, want the input's length %d", tc.name, r.Offset(), len(tc.in))
		}
	}
	// What fits is accepted at each element size.
	for size, in := range map[int][]byte{1: {2, 0, 0}, 2: {2, 0, 0, 0, 0}, 16: append([]byte{1}, make([]byte, 16)...)} {
		if r := NewReader(in); r.Count(size) == 0 || r.Err() != nil {
			t.Errorf("a count that fits at element size %d is refused: %v", size, r.Err())
		}
	}
}

// TestFirstFailureSticks: after a failure every read returns its zero
// value, nothing is allocated for a list, and Done keeps reporting the
// first error whatever is read or failed later.
func TestFirstFailureSticks(t *testing.T) {
	r := NewReader([]byte{0x80, 0x00, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	r.Uvarint()
	first := r.Err()
	if first == nil {
		t.Fatal("a padded varint was accepted")
	}
	if r.Uvarint() != 0 || r.Int() != 0 || r.Signed() != 0 || r.Count(1) != 0 || r.U32() != 0 || r.U64() != 0 ||
		r.String() != "" || len(r.Bytes()) != 0 || len(r.Ints()) != 0 || len(List(&r, 1, (*Reader).String)) != 0 {
		t.Error("a read after the failure returned something")
	}
	r.Failf("later")
	if r.Err() != first || r.Done() != first {
		t.Errorf("the first failure %q was replaced by %q", first, r.Done())
	}
}

// TestReaderAt: Offset is an offset into the whole input wherever the
// reader started; a start outside the input is a failure, not a panic.
func TestReaderAt(t *testing.T) {
	b := AppendBytes(AppendInt([]byte("skip"), 300), "xy")
	r := ReaderAt(b, 4)
	if got := r.Int(); got != 300 || r.Offset() != 6 {
		t.Errorf("Int() = %d at offset %d, want 300 at 6", got, r.Offset())
	}
	if s := r.String(); s != "xy" || r.Done() != nil {
		t.Errorf("String() = %q, Done() = %v", s, r.Done())
	}
	if end := ReaderAt(b, len(b)); end.Done() != nil {
		t.Errorf("a reader at the input's end: %v", end.Done())
	}
	for _, off := range []int{-1, len(b) + 1, math.MaxInt, math.MinInt} {
		r := ReaderAt(b, off)
		if r.Err() == nil || r.Uvarint() != 0 || r.U32() != 0 || r.Offset() != len(b) {
			t.Errorf("ReaderAt(%d) over %d bytes: err %v, offset %d", off, len(b), r.Err(), r.Offset())
		}
	}
}

// FuzzWireReader drives a random sequence of reads over random bytes: no
// read panics or moves past the end, Offset never goes back, a byte string
// returned lies inside the input, a list is never longer than the bytes
// that were left, and once a read fails every later one returns nothing.
func FuzzWireReader(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, AppendBytes(AppendSigned(AppendInts(nil, []int{1, 200}), -5), "abc"), 0)
	f.Add([]byte{5, 5, 5}, []byte{0x80, 0x00, 1}, 0)
	f.Add([]byte{6, 7, 8, 4}, append(AppendUvarint(nil, 1<<60), 1, 2, 3, 4, 5, 6, 7, 8), 3)
	f.Add([]byte{9, 0}, []byte{1, 2}, 40)
	f.Fuzz(func(t *testing.T, ops, in []byte, start int) {
		r := ReaderAt(in, start)
		prev, failed := r.Offset(), r.Err() != nil
		for _, op := range ops {
			left, elems := len(in)-r.Offset(), 0
			var zero bool
			switch op % 10 {
			case 0:
				zero = r.Uvarint() == 0
			case 1:
				zero = r.Int() == 0
			case 2:
				zero = r.Signed() == 0
			case 3:
				n := r.Count(1 + int(op/10))
				zero, elems = n == 0, n*(1+int(op/10))
			case 4:
				s := r.Bytes()
				zero, elems = len(s) == 0, len(s)
				if len(s) > 0 && !bytes.Equal(s, in[r.Offset()-len(s):r.Offset()]) {
					t.Fatalf("Bytes() returned %q, which is not what precedes offset %d", s, r.Offset())
				}
			case 5:
				s := r.String()
				zero, elems = s == "", len(s)
			case 6:
				zero = r.U32() == 0
			case 7:
				zero = r.U64() == 0
			case 8:
				l := r.Ints()
				zero, elems = len(l) == 0, len(l)
			case 9:
				l := List(&r, 2, func(r *Reader) [2]int { return [2]int{r.Int(), r.Signed()} })
				zero, elems = len(l) == 0, 2*len(l)
			}
			if failed && !zero {
				t.Fatalf("op %d returned a value after the reader had failed", op)
			}
			if elems > left {
				t.Fatalf("op %d produced %d bytes' worth of elements from %d bytes", op, elems, left)
			}
			if off := r.Offset(); off < prev || off > len(in) {
				t.Fatalf("Offset() went from %d to %d over %d bytes", prev, off, len(in))
			}
			prev, failed = r.Offset(), r.Err() != nil
			if failed && prev != len(in) {
				t.Fatalf("a failed reader sits at %d of %d", prev, len(in))
			}
		}
		if err := r.Done(); (err == nil) != (!failed && prev == len(in)) {
			t.Fatalf("Done() = %v at offset %d of %d, failed %v", err, prev, len(in), failed)
		}
	})
}
