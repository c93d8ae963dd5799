package store

import (
	"bytes"
	"reflect"
	"testing"

	"bivoc/internal/mining"
	"bivoc/internal/voctest"
)

// FuzzSegmentDecode throws arbitrary bytes at the segment reader. The
// contract under fuzz: never panic, never hang, and — because the seed
// corpus contains real encoded segments whose mutations usually die at
// the CRC — any input that does decode must survive the full
// FromSnapshot validation or be rejected; nothing may load silently
// wrong. When a mutated input round-trips all the way to an index, we
// re-encode it and require the canonical bytes to decode again — the
// decoder and encoder must agree on every accepted file.
func FuzzSegmentDecode(f *testing.F) {
	// Seed corpus: real segments of several shapes and sizes, plus the
	// interesting almost-valid neighborhoods (truncations, bit flips).
	seeds := [][]byte{
		EncodeSegment(sealedIndex(nil).Export()),
		EncodeSegment(sealedIndex(voctest.NewWorld(1, 1).Docs).Export()),
		EncodeSegment(sealedIndex(voctest.NewWorld(2, 25).Docs).Export()),
		EncodeSegment(sealedIndex(voctest.NewWorld(3, 120).Docs).Export()),
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)*3/4])
		flipped := append([]byte(nil), s...)
		flipped[len(flipped)/3] ^= 0x10
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte("BVSG"))

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSegment(data)
		if err != nil {
			if !IsCorrupt(err) {
				t.Fatalf("decode error is not IsCorrupt: %v", err)
			}
			fuzzMapped(t, data, nil)
			return
		}
		ix, err := mining.FromSnapshot(snap)
		if err != nil {
			// Structurally invalid but checksum-valid: only reachable by
			// hand-crafting, still must be a clean rejection.
			fuzzMapped(t, data, nil)
			return
		}
		fuzzMapped(t, data, snap)
		// Accepted input: canonical re-encoding must round-trip.
		re := EncodeSegment(ix.Export())
		snap2, err := DecodeSegment(re)
		if err != nil {
			t.Fatalf("re-encoding an accepted segment does not decode: %v", err)
		}
		if len(snap2.Docs) != len(snap.Docs) {
			t.Fatalf("re-encode changed doc count: %d != %d", len(snap2.Docs), len(snap.Docs))
		}
		if !bytes.Equal(EncodeSegment(ix.Export()), re) {
			t.Fatal("canonical encoding is not deterministic")
		}
	})
}

// fuzzMapped drives the same bytes through the mapped reader's open
// path and, when it opens, through every lazy accessor: the mapped
// reader must never panic on any input, and on a version-2 file the
// eager decoder accepted it must serve exactly the decoded snapshot
// (that agreement is what lets the store fall back between the two
// loaders without a behavior change). When the eager decoder rejected
// the input, lazy reads may return empty results with a sticky error —
// but must stay in bounds.
func fuzzMapped(t *testing.T, data []byte, snap *mining.IndexSnapshot) {
	m, err := newMapped("fuzz", data, func([]byte) error { return nil }, NewPostingsCache(1<<20))
	if err != nil {
		if !IsCorrupt(err) {
			t.Fatalf("mapped open error is not IsCorrupt: %v", err)
		}
		if snap != nil && len(data) >= segHeaderLen && data[4] == SegmentVersion {
			t.Fatalf("eager decoder accepted a version-%d file the mapped reader rejects: %v", SegmentVersion, err)
		}
		return
	}
	// Exercise every accessor; decode twice so the second pass crosses
	// the cache.
	for range [2]int{} {
		m.EachConcept(func(cat, canon string, df int) {
			if got := len(m.ConceptPostings(cat, canon)); snap != nil && got != df && m.Err() == nil {
				t.Fatalf("concept %q/%q: %d postings, directory df %d", cat, canon, got, df)
			}
		})
		m.EachCategory(func(cat string, df int) { m.CategoryPostings(cat) })
		m.EachField(func(f, v string, df int) { m.FieldPostings(f, v) })
		for i := 0; i < m.DocCount(); i++ {
			m.Doc(i)
			m.DocID(i)
			m.DocTime(i)
		}
	}
	if snap == nil {
		return
	}
	// The eager decoder accepted this file: the mapped view must agree
	// on every byte it serves.
	if m.DocCount() != len(snap.Docs) {
		t.Fatalf("mapped DocCount %d, snapshot has %d docs", m.DocCount(), len(snap.Docs))
	}
	for i, want := range snap.Docs {
		if got := m.Doc(i); !reflect.DeepEqual(got, want) {
			t.Fatalf("mapped Doc(%d) = %+v, want %+v", i, got, want)
		}
		if m.DocID(i) != want.ID || m.DocTime(i) != want.Time {
			t.Fatalf("mapped DocID/DocTime(%d) diverge", i)
		}
	}
	for _, e := range snap.Concepts {
		if got := m.ConceptPostings(e.Key[0], e.Key[1]); !postingsEqual(got, e.Posts) {
			t.Fatalf("mapped concept %q/%q postings diverge", e.Key[0], e.Key[1])
		}
	}
	for _, e := range snap.Categories {
		if got := m.CategoryPostings(e.Category); !postingsEqual(got, e.Posts) {
			t.Fatalf("mapped category %q postings diverge", e.Category)
		}
	}
	for _, e := range snap.Fields {
		if got := m.FieldPostings(e.Key[0], e.Key[1]); !postingsEqual(got, e.Posts) {
			t.Fatalf("mapped field %q=%q postings diverge", e.Key[0], e.Key[1])
		}
	}
	if err := m.Err(); err != nil {
		t.Fatalf("mapped reads over an accepted file left a sticky error: %v", err)
	}
}

// postingsEqual treats nil and empty as equal (absent keys are nil on
// both readers, but a decoded empty list may be empty-non-nil).
func postingsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
