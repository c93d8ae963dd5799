package mining_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"bivoc/internal/mining"
	"bivoc/internal/voctest"
)

// The merge-helper oracle suite: the exported marginal-merge API
// (MergeConceptCounts, MergeRelFreqMarginals / FinalizeRelFreq,
// MergeAssocMarginals / FinalizeAssoc, MergeFieldValues, MergeTrends)
// must reproduce the monolithic oracle byte for byte when fed per-part
// marginals from any partition of the corpus. This is the contract the
// federation coordinator relies on: it merges marginals extracted by
// remote shards through exactly these helpers, so if they match the
// monolithic index here, fed responses match a single node there.

// mergedParts answers as a coordinator does: every part extracts its own
// marginals standalone — the shape a coordinator sees on the wire from N
// shards — and the exported helpers merge them and finalize once.
type mergedParts []mining.Querier

func collect[T any](parts mergedParts, ask func(mining.Querier) T) []T {
	out := make([]T, len(parts))
	for i, p := range parts {
		out[i] = ask(p)
	}
	return out
}

func sum(ns []int) (total int) {
	for _, n := range ns {
		total += n
	}
	return total
}

func (m mergedParts) Len() int { return sum(collect(m, mining.Querier.Len)) }
func (m mergedParts) Count(d mining.Dim) int {
	return sum(collect(m, func(q mining.Querier) int { return q.Count(d) }))
}
func (m mergedParts) CountBoth(a, b mining.Dim) int {
	return sum(collect(m, func(q mining.Querier) int { return q.CountBoth(a, b) }))
}
func (m mergedParts) DrillDown(a, b mining.Dim) []mining.Document {
	docs, _ := m.DrillDownLimit(a, b, -1)
	return docs
}

// DrillDownLimit keeps the first limit of the parts' own first limit,
// re-sorted by ID, as the coordinator's drill-down merge does.
func (m mergedParts) DrillDownLimit(a, b mining.Dim, limit int) (docs []mining.Document, count int) {
	for _, q := range m {
		part, n := q.DrillDownLimit(a, b, limit)
		docs, count = append(docs, part...), count+n
	}
	slices.SortFunc(docs, func(x, y mining.Document) int { return strings.Compare(x.ID, y.ID) })
	if limit >= 0 && limit < len(docs) {
		docs = docs[:limit]
	}
	return docs, count
}
func (m mergedParts) ConceptDF(category string) []mining.ConceptCount {
	return mining.MergeConceptCounts(collect(m, func(q mining.Querier) []mining.ConceptCount { return q.ConceptDF(category) })...)
}
func (m mergedParts) ConceptsInCategory(category string) []string {
	return mining.ConceptNames(m.ConceptDF(category))
}
func (m mergedParts) FieldValues(field string) []string {
	return mining.MergeFieldValues(collect(m, func(q mining.Querier) []string { return q.FieldValues(field) })...)
}
func (m mergedParts) RelFreqMarginals(category string, featured mining.Dim) mining.RelFreqMarginals {
	return mining.MergeRelFreqMarginals(collect(m, func(q mining.Querier) mining.RelFreqMarginals { return q.RelFreqMarginals(category, featured) })...)
}
func (m mergedParts) RelativeFrequency(category string, featured mining.Dim) []mining.Relevance {
	return mining.FinalizeRelFreq(m.RelFreqMarginals(category, featured))
}
func (m mergedParts) AssocMarginals(rows, cols []mining.Dim) mining.AssocMarginals {
	return mining.MergeAssocMarginals(collect(m, func(q mining.Querier) mining.AssocMarginals { return q.AssocMarginals(rows, cols) })...)
}
func (m mergedParts) AssociateN(rows, cols []mining.Dim, confidence float64, _ int) *mining.AssocTable {
	return mining.FinalizeAssoc(rows, cols, confidence, m.AssocMarginals(rows, cols))
}
func (m mergedParts) Trend(d mining.Dim) []mining.TrendPoint {
	return mining.MergeTrends(collect(m, func(q mining.Querier) []mining.TrendPoint { return q.Trend(d) })...)
}

// TestMergeHelpersMatchMonolithic is the single-merge-implementation
// oracle: marginals extracted per part and merged through the exported
// helpers equal the monolithic naive view at partition counts {1, 2, 8} —
// with each part a single segment, as one-segment shards answer, and with
// the parts themselves segment sets of two, as a fleet of compacting
// daemons does (a merge of merges).
func TestMergeHelpersMatchMonolithic(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(80081))
	for trial := 0; trial < 2; trial++ {
		ndocs := 40 + rng.Intn(140)
		seed := rng.Int63()
		for _, k := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("world-%d-parts-%d", trial, k), func(t *testing.T) {
				t.Parallel()
				w := voctest.NewWorld(seed, ndocs)
				naive := oracle(w)
				var single, nested mergedParts
				for _, seg := range w.Segments(k) {
					single = append(single, seg)
				}
				for segs := w.Segments(2 * k); len(segs) > 0; segs = segs[2:] {
					nested = append(nested, mining.NewSegmentSet(segs[:2]...))
				}
				voctest.CheckQueriers(t, single, naive, w)
				voctest.CheckQueriers(t, nested, naive, w)
			})
		}
	}
}

// TestMergeHelpersDegenerate pins the zero-part and empty-part shapes
// the coordinator hits when every shard (or some shard) holds nothing.
func TestMergeHelpersDegenerate(t *testing.T) {
	t.Parallel()
	if got := mining.MergeConceptCounts(); len(got) != 0 {
		t.Fatalf("mining.MergeConceptCounts() = %#v, want empty", got)
	}
	if got := mining.MergeFieldValues(nil, nil); got != nil {
		t.Fatalf("mining.MergeFieldValues(nil, nil) = %#v, want nil", got)
	}
	if got := mining.MergeTrends(); got == nil || len(got) != 0 {
		t.Fatalf("mining.MergeTrends() = %#v, want non-nil empty", got)
	}
	rfm := mining.MergeRelFreqMarginals(mining.RelFreqMarginals{}, mining.RelFreqMarginals{})
	if rfm.N != 0 || rfm.SubsetSize != 0 || len(rfm.Concepts) != 0 {
		t.Fatalf("MergeRelFreqMarginals of empties = %#v", rfm)
	}
	if got := mining.FinalizeRelFreq(rfm); got != nil {
		t.Fatalf("mining.FinalizeRelFreq(empty) = %#v, want nil", got)
	}
	am := mining.MergeAssocMarginals()
	if am.N != 0 || am.Nver != nil {
		t.Fatalf("mining.MergeAssocMarginals() = %#v, want zero value", am)
	}

	// Zero-count marginals with shape still build a zero table.
	rows := []mining.Dim{mining.CategoryDim("issue")}
	cols := []mining.Dim{mining.FieldDim("outcome", "x")}
	shaped := mining.AssocMarginals{Nver: []int{0}, Nhor: []int{0}, Ncell: [][]int{{0}}}
	tbl := mining.FinalizeAssoc(rows, cols, 0.95, shaped)
	if tbl.Cells[0][0].N != 0 || tbl.Cells[0][0].PointIndex != 0 {
		t.Fatalf("mining.FinalizeAssoc(zero marginals) cell = %#v, want zero cell", tbl.Cells[0][0])
	}
}
