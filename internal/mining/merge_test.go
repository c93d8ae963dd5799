package mining

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The merge-helper oracle suite: the exported marginal-merge API
// (MergeConceptCounts, MergeRelFreqMarginals / FinalizeRelFreq,
// MergeAssocMarginals / FinalizeAssoc, MergeFieldValues, MergeTrends)
// must reproduce the monolithic Index byte for byte when fed per-part
// marginals from any partition of the corpus. This is the contract the
// federation coordinator relies on: it merges marginals extracted by
// remote shards through exactly these helpers, so if they match the
// monolithic index here, fed responses match a single node there.

// marginalParts extracts every partition member's marginals standalone —
// the same shape a coordinator sees on the wire from N shards.
func checkMergeEquiv(t *testing.T, w *equivWorld, segs []*Index) {
	t.Helper()
	ix := w.ix

	for _, cat := range w.cats {
		parts := make([][]ConceptCount, len(segs))
		for i, s := range segs {
			parts[i] = s.ConceptDF(cat)
		}
		merged := MergeConceptCounts(parts...)
		if got, want := merged, ix.ConceptDF(cat); !reflect.DeepEqual(got, want) {
			t.Fatalf("MergeConceptCounts(%q) = %#v, monolithic %#v", cat, got, want)
		}
		if got, want := ConceptNames(merged), ix.ConceptsInCategory(cat); !reflect.DeepEqual(got, want) {
			t.Fatalf("ConceptNames(merge(%q)) = %#v, monolithic %#v", cat, got, want)
		}
		for _, d := range w.dims {
			rfParts := make([]RelFreqMarginals, len(segs))
			for i, s := range segs {
				rfParts[i] = s.RelFreqMarginals(cat, d)
			}
			rfm := MergeRelFreqMarginals(rfParts...)
			if got, want := rfm, ix.RelFreqMarginals(cat, d); !reflect.DeepEqual(got, want) {
				t.Fatalf("MergeRelFreqMarginals(%q, %s) = %#v, monolithic %#v", cat, d.Label(), got, want)
			}
			if got, want := FinalizeRelFreq(rfm), ix.RelativeFrequency(cat, d); !reflect.DeepEqual(got, want) {
				t.Fatalf("FinalizeRelFreq(merge(%q, %s)) diverges from monolithic:\n got %#v\nwant %#v",
					cat, d.Label(), got, want)
			}
		}
	}

	for _, f := range w.fields {
		parts := make([][]string, len(segs))
		for i, s := range segs {
			parts[i] = s.FieldValues(f)
		}
		if got, want := MergeFieldValues(parts...), ix.FieldValues(f); !reflect.DeepEqual(got, want) {
			t.Fatalf("MergeFieldValues(%q) = %#v, monolithic %#v", f, got, want)
		}
	}

	for _, d := range w.dims {
		parts := make([][]TrendPoint, len(segs))
		for i, s := range segs {
			parts[i] = s.Trend(d)
		}
		if got, want := MergeTrends(parts...), ix.Trend(d); !reflect.DeepEqual(got, want) {
			t.Fatalf("MergeTrends(%s) = %#v, monolithic %#v", d.Label(), got, want)
		}
	}

	rows := []Dim{w.dims[0], w.dims[2], w.dims[4], w.dims[11]}
	cols := []Dim{w.dims[8], w.dims[9], w.dims[10]}
	parts := make([]AssocMarginals, len(segs))
	for i, s := range segs {
		parts[i] = s.AssocMarginals(rows, cols)
	}
	am := MergeAssocMarginals(parts...)
	if got, want := am, ix.AssocMarginals(rows, cols); !reflect.DeepEqual(got, want) {
		t.Fatalf("MergeAssocMarginals = %#v, monolithic %#v", got, want)
	}
	// One pipeline, three entries: finalizing the merged per-part marginals
	// equals the monolithic table and the segmented one.
	set := NewSegmentSet(segs...)
	for _, conf := range []float64{0, 0.90, 0.95, 0.99} {
		want := FinalizeAssoc(rows, cols, conf, am)
		if got := ix.AssociateN(rows, cols, conf, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("FinalizeAssoc(conf=%v) diverges from monolithic:\n got %#v\nwant %#v", conf, want, got)
		}
		if got := set.AssociateN(rows, cols, conf, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("SegmentSet.AssociateN(conf=%v) diverges from FinalizeAssoc:\n got %#v\nwant %#v", conf, got, want)
		}
	}
}

// TestMergeHelpersMatchMonolithic is the single-merge-implementation
// oracle: marginals extracted per part and merged through the exported
// helpers equal the monolithic result at partition counts {1, 2, 8},
// in fast and naive-oracle modes, against raw and prepared baselines.
func TestMergeHelpersMatchMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(80081))
	for trial := 0; trial < 2; trial++ {
		ndocs := 40 + rng.Intn(140)
		seed := rng.Int63()
		for _, k := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("world-%d-parts-%d", trial, k), func(t *testing.T) {
				w := newEquivWorld(rand.New(rand.NewSource(seed)), ndocs)
				segs := partitionSegments(allDocs(w.ix), k)
				checkMergeEquiv(t, w, segs) // raw monolithic baseline
				w.ix.Prepare()
				checkMergeEquiv(t, w, segs) // prepared baseline
				withNaive(func() { checkMergeEquiv(t, w, segs) })
			})
		}
	}
}

// TestMergeHelpersDegenerate pins the zero-part and empty-part shapes
// the coordinator hits when every shard (or some shard) holds nothing.
func TestMergeHelpersDegenerate(t *testing.T) {
	if got := MergeConceptCounts(); len(got) != 0 {
		t.Fatalf("MergeConceptCounts() = %#v, want empty", got)
	}
	if got := MergeFieldValues(nil, nil); got != nil {
		t.Fatalf("MergeFieldValues(nil, nil) = %#v, want nil", got)
	}
	if got := MergeTrends(); got == nil || len(got) != 0 {
		t.Fatalf("MergeTrends() = %#v, want non-nil empty", got)
	}
	rfm := MergeRelFreqMarginals(RelFreqMarginals{}, RelFreqMarginals{})
	if rfm.N != 0 || rfm.SubsetSize != 0 || len(rfm.Concepts) != 0 {
		t.Fatalf("MergeRelFreqMarginals of empties = %#v", rfm)
	}
	if got := FinalizeRelFreq(rfm); got != nil {
		t.Fatalf("FinalizeRelFreq(empty) = %#v, want nil", got)
	}
	am := MergeAssocMarginals()
	if am.N != 0 || am.Nver != nil {
		t.Fatalf("MergeAssocMarginals() = %#v, want zero value", am)
	}

	// Zero-count marginals with shape still build a zero table.
	rows := []Dim{CategoryDim("issue")}
	cols := []Dim{FieldDim("outcome", "x")}
	shaped := AssocMarginals{Nver: []int{0}, Nhor: []int{0}, Ncell: [][]int{{0}}}
	tbl := FinalizeAssoc(rows, cols, 0.95, shaped)
	if tbl.Cells[0][0].N != 0 || tbl.Cells[0][0].PointIndex != 0 {
		t.Fatalf("FinalizeAssoc(zero marginals) cell = %#v, want zero cell", tbl.Cells[0][0])
	}
}
