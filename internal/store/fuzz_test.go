package store

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"bivoc/internal/mining"
	"bivoc/internal/voctest"
)

// FuzzSegmentDecode throws arbitrary bytes at the segment reader. The
// contract under fuzz: never panic, never hang, and refuse with an
// IsCorrupt error or serve faithfully. The reference is the index that
// was written: every seed reads back as its sealed index under both
// loaders; an input the materializing open accepts re-encodes to bytes
// that read back to the same index (and encode to themselves again); and
// its mapped view serves exactly what the materialized index holds. An
// input only the mapped open accepts may answer empty with a sticky
// error, but every lazy read stays in bounds.
func FuzzSegmentDecode(f *testing.F) {
	// Seed corpus: real segments of several shapes and sizes, plus the
	// interesting almost-valid neighborhoods (truncations, bit flips).
	for _, docs := range [][]mining.Document{nil, voctest.NewWorld(1, 1).Docs, voctest.NewWorld(2, 25).Docs, voctest.NewWorld(3, 120).Docs} {
		ix := sealedIndex(docs)
		s := EncodeSegment(ix)
		requireReadsBack(f, s, ix)
		f.Add(s)
		f.Add(s[:len(s)*3/4])
		flipped := append([]byte(nil), s...)
		flipped[len(flipped)/3] ^= 0x10
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte("BVSG"))

	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := materialize("fuzz", data)
		if err != nil {
			if !IsCorrupt(err) {
				t.Fatalf("materializing error is not IsCorrupt: %v", err)
			}
			m, err := newMapped("fuzz", data, nil, NewPostingsCache(1<<20))
			if err != nil {
				if !IsCorrupt(err) {
					t.Fatalf("mapped open error is not IsCorrupt: %v", err)
				}
				return
			}
			// Every accessor, twice so the second pass crosses the cache.
			for range 2 {
				listsOf(m)
				for i := range m.DocCount() {
					m.Doc(i)
					m.DocID(i)
					m.DocTime(i)
				}
			}
			return
		}
		re := EncodeSegment(ix)
		requireReadsBack(t, re, ix)
		requireHolds(t, "the mapped view of the input", mappedView(t, data), ix)
	})
}

// requireReadsBack fails t unless segment bytes read back as want under
// both loaders and the materialized index encodes to the same bytes.
func requireReadsBack(t testing.TB, data []byte, want *mining.Index) {
	t.Helper()
	ix, err := materialize("readback", data)
	if err != nil {
		t.Fatalf("materializing: %v", err)
	}
	requireHolds(t, "the materialized index", ix.Backing(), want)
	requireHolds(t, "the mapped view", mappedView(t, data), want)
	if !bytes.Equal(EncodeSegment(ix), data) {
		t.Fatal("the materialized index does not encode to the bytes it was read from")
	}
}

// mappedView opens segment bytes the way a mapping is served: through a
// postings cache, strings read per reference.
func mappedView(t testing.TB, data []byte) *Mapped {
	t.Helper()
	m, err := newMapped("mapped", data, func([]byte) error { return nil }, NewPostingsCache(1<<20))
	if err != nil {
		t.Fatalf("mapped open: %v", err)
	}
	return m
}

// requireHolds fails t unless b holds exactly want's documents, at the
// same positions, and its postings lists under the same keys — and, when
// b is a mapping, read all of it without a sticky error.
func requireHolds(t testing.TB, what string, b mining.Backing, want *mining.Index) {
	t.Helper()
	w := want.Backing()
	if b.DocCount() != w.DocCount() {
		t.Fatalf("%s holds %d documents, want %d", what, b.DocCount(), w.DocCount())
	}
	for i := range w.DocCount() {
		d := voctest.AsStored([]mining.Document{w.Doc(i)})[0]
		if got := b.Doc(i); !reflect.DeepEqual(got, d) || b.DocID(i) != d.ID || b.DocTime(i) != d.Time {
			t.Fatalf("%s: document %d is %+v, want %+v", what, i, got, d)
		}
	}
	if got, lists := listsOf(b), listsOf(w); !reflect.DeepEqual(got, lists) {
		t.Fatalf("%s: postings diverge:\n got %v\nwant %v", what, got, lists)
	}
	if m, ok := b.(*Mapped); ok && m.Err() != nil {
		t.Fatalf("%s: reads left a sticky error: %v", what, m.Err())
	}
}

// listsOf reads every postings list of b, by family and key, each after
// the df its enumeration reported.
func listsOf(b mining.Backing) map[string][]int {
	lists := map[string][]int{}
	put := func(key string, df int, posts []int) { lists[key] = append([]int{df}, posts...) }
	b.EachConcept(func(cat, canon string, df int) {
		put(fmt.Sprintf("concept %q %q", cat, canon), df, b.ConceptPostings(cat, canon))
	})
	b.EachCategory(func(cat string, df int) {
		put(fmt.Sprintf("category %q", cat), df, b.CategoryPostings(cat))
	})
	b.EachField(func(field, value string, df int) {
		put(fmt.Sprintf("field %q %q", field, value), df, b.FieldPostings(field, value))
	})
	return lists
}

// FuzzWALReplay: arbitrary bytes through the WAL replayer — torn tails
// are data, not panics.
func FuzzWALReplay(f *testing.F) {
	var good []byte
	good = append(good, walMagic[:]...)
	good = append(good, 1, 0, 0, 0)
	for _, d := range voctest.NewWorld(4, 8).Docs {
		good = append(good, appendWALRecord(nil, d)...)
	}
	f.Add(good)
	f.Add(good[:len(good)-2])
	f.Add(good[:walHeaderLen])
	f.Add([]byte{})
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		docs, goodLen, dropped, err := replayWALData(data)
		if err != nil {
			return
		}
		if goodLen+dropped != int64(len(data)) && len(data) >= walHeaderLen {
			t.Fatalf("accounting: good %d + dropped %d != %d", goodLen, dropped, len(data))
		}
		// Re-replaying the intact prefix must reproduce the same docs.
		if goodLen >= walHeaderLen {
			docs2, _, dropped2, err := replayWALData(data[:goodLen])
			if err != nil || dropped2 != 0 || len(docs2) != len(docs) {
				t.Fatalf("intact prefix does not replay cleanly: err=%v dropped=%d docs=%d/%d",
					err, dropped2, len(docs2), len(docs))
			}
		}
	})
}
