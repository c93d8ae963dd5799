package mining

// Nothing shipped reaches what this file declares. IndexSnapshot, Export
// and FromSnapshot were the bridge between an Index and the segment codec
// until the segment reader became the only code that parses segment
// bytes: EncodeSegment now walks an index's Backing in key order, and an
// eager open materializes what the mapped reader reads
// (Materialize). The checks FromSnapshot made are the reader's now —
// TestDamagedGenerationUnderEitherLoader and FuzzSegmentDecode in
// internal/store pin them. The code stays, as test code only, because the
// tests below pin it and tests are retired a few at a time. It is a
// reference for nothing: delete each declaration with its tests.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"bivoc/internal/annotate"
)

// IndexSnapshot is the order-deterministic view of an Index's internals:
// the document store plus the three inverted-list families, each sorted
// by key.
type IndexSnapshot struct {
	Docs       []Document
	Concepts   []KeyedPostings // sorted by category, then canonical
	Categories []CatPostings   // sorted by category
	Fields     []KeyedPostings // sorted by field, then value
}

// KeyedPostings is one inverted list under a two-part key — either
// {category, canonical} or {field, value}.
type KeyedPostings struct {
	Key   [2]string
	Posts []int
}

// CatPostings is one per-category inverted list.
type CatPostings struct {
	Category string
	Posts    []int
}

// Export materializes the index as an IndexSnapshot sharing its
// documents and postings.
func (ix *Index) Export() *IndexSnapshot {
	s := &IndexSnapshot{Docs: make([]Document, ix.b.DocCount())}
	for i := range s.Docs {
		s.Docs[i] = ix.b.Doc(i)
	}
	ix.b.EachConcept(func(cat, canon string, _ int) {
		s.Concepts = append(s.Concepts, KeyedPostings{
			Key: [2]string{cat, canon}, Posts: ix.b.ConceptPostings(cat, canon)})
	})
	ix.b.EachCategory(func(cat string, _ int) {
		s.Categories = append(s.Categories, CatPostings{Category: cat, Posts: ix.b.CategoryPostings(cat)})
	})
	ix.b.EachField(func(field, value string, _ int) {
		s.Fields = append(s.Fields, KeyedPostings{
			Key: [2]string{field, value}, Posts: ix.b.FieldPostings(field, value)})
	})
	sortKeyed(s.Concepts)
	sortKeyed(s.Fields)
	sort.Slice(s.Categories, func(i, j int) bool {
		return s.Categories[i].Category < s.Categories[j].Category
	})
	return s
}

func sortKeyed(entries []KeyedPostings) {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Key[0] != entries[j].Key[0] {
			return entries[i].Key[0] < entries[j].Key[0]
		}
		return entries[i].Key[1] < entries[j].Key[1]
	})
}

// FromSnapshot rebuilds an Index from a snapshot, refusing one whose
// postings are not strictly increasing positions in range or whose keys
// repeat.
func FromSnapshot(s *IndexSnapshot) (*Index, error) {
	mb := &memBacking{
		docs:      s.Docs,
		byConcept: make(map[[2]string][]int, len(s.Concepts)),
		byCat:     make(map[string][]int, len(s.Categories)),
		byField:   make(map[[2]string][]int, len(s.Fields)),
	}
	n := len(s.Docs)
	for _, e := range s.Concepts {
		if err := checkPostings("concept", e.Key[0]+"/"+e.Key[1], e.Posts, n); err != nil {
			return nil, err
		}
		if _, dup := mb.byConcept[e.Key]; dup {
			return nil, fmt.Errorf("mining: snapshot: duplicate concept key %q/%q", e.Key[0], e.Key[1])
		}
		mb.byConcept[e.Key] = e.Posts
	}
	for _, e := range s.Categories {
		if err := checkPostings("category", e.Category, e.Posts, n); err != nil {
			return nil, err
		}
		if _, dup := mb.byCat[e.Category]; dup {
			return nil, fmt.Errorf("mining: snapshot: duplicate category key %q", e.Category)
		}
		mb.byCat[e.Category] = e.Posts
	}
	for _, e := range s.Fields {
		if err := checkPostings("field", e.Key[0]+"="+e.Key[1], e.Posts, n); err != nil {
			return nil, err
		}
		if _, dup := mb.byField[e.Key]; dup {
			return nil, fmt.Errorf("mining: snapshot: duplicate field key %q=%q", e.Key[0], e.Key[1])
		}
		mb.byField[e.Key] = e.Posts
	}
	return &Index{b: mb}, nil
}

// checkPostings enforces the postings contract on one list.
func checkPostings(kind, key string, posts []int, n int) error {
	prev := -1
	for _, p := range posts {
		if p <= prev || p >= n {
			return fmt.Errorf("mining: snapshot: %s %q postings violate the sorted-in-range contract (pos %d after %d, %d docs)",
				kind, key, p, prev, n)
		}
		prev = p
	}
	return nil
}

// snapshotWorld builds a deterministic pseudo-random corpus exercising
// every dimension family: concepts across several categories, fields,
// and time buckets.
func snapshotWorld(t *testing.T, n int, seed int64) *Index {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	cats := []string{"intent", "discount", "place"}
	canon := []string{"weak start", "strong start", "aaa", "coupon", "austin", "dallas"}
	fields := []string{"outcome", "agent"}
	vals := []string{"reservation", "unbooked", "service", "A1", "A2"}
	si := NewStreamIndex()
	for i := 0; i < n; i++ {
		var cs []annotate.Concept
		for j := 0; j < rnd.Intn(4); j++ {
			cs = append(cs, annotate.Concept{
				Category:  cats[rnd.Intn(len(cats))],
				Canonical: canon[rnd.Intn(len(canon))],
				Start:     rnd.Intn(10),
				End:       rnd.Intn(10) + 10,
			})
		}
		fs := map[string]string{}
		for j := 0; j < rnd.Intn(3); j++ {
			fs[fields[rnd.Intn(len(fields))]] = vals[rnd.Intn(len(vals))]
		}
		si.Add(Document{
			ID:       "doc-" + string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260)),
			Concepts: cs,
			Fields:   fs,
			Time:     rnd.Intn(7),
		})
	}
	return si.Seal()
}

// TestSnapshotRoundTrip pins Export → FromSnapshot as a lossless round
// trip: the rebuilt index answers every query family identically.
func TestSnapshotRoundTrip(t *testing.T) {
	ix := snapshotWorld(t, 150, 42)
	got, err := FromSnapshot(ix.Export())
	if err != nil {
		t.Fatal(err)
	}
	got.Prepare()

	if got.Len() != ix.Len() {
		t.Fatalf("Len: got %d want %d", got.Len(), ix.Len())
	}
	dims := []Dim{
		ConceptDim("intent", "weak start"),
		CategoryDim("discount"),
		FieldDim("outcome", "reservation"),
		AndDim(CategoryDim("intent"), FieldDim("outcome", "reservation")),
	}
	for _, d := range dims {
		if a, b := got.Count(d), ix.Count(d); a != b {
			t.Errorf("Count(%s): got %d want %d", d.Label(), a, b)
		}
		if !reflect.DeepEqual(got.Trend(d), ix.Trend(d)) {
			t.Errorf("Trend(%s) diverges", d.Label())
		}
	}
	if !reflect.DeepEqual(got.DrillDown(dims[0], dims[2]), ix.DrillDown(dims[0], dims[2])) {
		t.Error("DrillDown diverges")
	}
	if !reflect.DeepEqual(
		got.RelativeFrequency("discount", dims[2]),
		ix.RelativeFrequency("discount", dims[2])) {
		t.Error("RelativeFrequency diverges")
	}
	if !reflect.DeepEqual(
		got.Associate(dims[:2], dims[2:3], 0.95),
		ix.Associate(dims[:2], dims[2:3], 0.95)) {
		t.Error("Associate diverges")
	}
	for _, cat := range []string{"intent", "discount", "place", "absent"} {
		if !reflect.DeepEqual(got.ConceptsInCategory(cat), ix.ConceptsInCategory(cat)) {
			t.Errorf("ConceptsInCategory(%s) diverges", cat)
		}
	}
	for _, f := range []string{"outcome", "agent", "absent"} {
		if !reflect.DeepEqual(got.FieldValues(f), ix.FieldValues(f)) {
			t.Errorf("FieldValues(%s) diverges", f)
		}
	}
}

// TestSnapshotExportDeterministic: two exports of the same index are
// deeply equal — entry order must not depend on map iteration.
func TestSnapshotExportDeterministic(t *testing.T) {
	ix := snapshotWorld(t, 80, 7)
	a, b := ix.Export(), ix.Export()
	if !reflect.DeepEqual(a, b) {
		t.Error("two Exports of the same index differ")
	}
}

// TestFromSnapshotRejectsInvalid pins the validation paths: out-of-range
// positions, unsorted lists, and duplicate keys must all be refused.
func TestFromSnapshotRejectsInvalid(t *testing.T) {
	base := func() *IndexSnapshot {
		return snapshotWorld(t, 20, 3).Export()
	}
	cases := []struct {
		name string
		warp func(*IndexSnapshot)
	}{
		{"concept position out of range", func(s *IndexSnapshot) {
			s.Concepts[0].Posts = append([]int(nil), s.Concepts[0].Posts...)
			s.Concepts[0].Posts[0] = len(s.Docs)
		}},
		{"negative position", func(s *IndexSnapshot) {
			s.Fields[0].Posts = append([]int{-1}, s.Fields[0].Posts...)
		}},
		{"unsorted category postings", func(s *IndexSnapshot) {
			s.Categories[0].Posts = []int{3, 1}
		}},
		{"duplicate position", func(s *IndexSnapshot) {
			s.Categories[0].Posts = []int{2, 2}
		}},
		{"duplicate concept key", func(s *IndexSnapshot) {
			s.Concepts = append(s.Concepts, s.Concepts[0])
		}},
		{"duplicate field key", func(s *IndexSnapshot) {
			s.Fields = append(s.Fields, s.Fields[0])
		}},
		{"duplicate category key", func(s *IndexSnapshot) {
			s.Categories = append(s.Categories, s.Categories[0])
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.warp(s)
			if _, err := FromSnapshot(s); err == nil {
				t.Error("FromSnapshot accepted an invalid snapshot")
			}
		})
	}
}
