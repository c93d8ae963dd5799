package voctest

import (
	"fmt"
	"reflect"
	"testing"

	"bivoc/internal/mining"
)

// CheckQueriers is the one comparator of the equivalence suites: every
// method of mining.Querier, over the world's whole battery, must return
// from got exactly what it returns from want — deeply equal, so bit for
// bit on floats and with nil told from empty, except that a limited
// drill-down may say "no documents" either way and that a document
// without fields may hold a nil or an empty map (AsStored). want is the
// naive view of one monolithic index over the world's documents; got is
// whatever is on trial: a sealed index with a cold or a warm conjunction
// memo, one built in arrival order, a stream's view, a segment set, a
// mapped backing.
// The first divergence is reported through tb.Errorf and ends the
// comparison.
func CheckQueriers(tb testing.TB, got, want mining.Querier, w *World) {
	tb.Helper()
	differs := func(g, x any, format string, args ...any) bool {
		tb.Helper()
		if reflect.DeepEqual(g, x) {
			return false
		}
		tb.Errorf("%s diverges from the oracle:\n got %s\nwant %s", fmt.Sprintf(format, args...), abridged(g), abridged(x))
		return true
	}
	if differs(got.Len(), want.Len(), "Len()") {
		return
	}
	for _, d := range w.Dims {
		if differs(got.Count(d), want.Count(d), "Count(%s)", d.Label()) ||
			differs(got.Trend(d), want.Trend(d), "Trend(%s)", d.Label()) {
			return
		}
	}
	for _, p := range append(w.Pairs[:len(w.Pairs):len(w.Pairs)], w.Cells...) {
		a, b := p[0], p[1]
		if differs(got.CountBoth(a, b), want.CountBoth(a, b), "CountBoth(%s, %s)", a.Label(), b.Label()) {
			return
		}
		gotCell, cell := AsStored(got.DrillDown(a, b)), AsStored(want.DrillDown(a, b))
		if differs(docIDs(gotCell), docIDs(cell), "the IDs of DrillDown(%s, %s)", a.Label(), b.Label()) ||
			differs(gotCell, cell, "DrillDown(%s, %s)", a.Label(), b.Label()) {
			return
		}
		// At every limit: the whole cell's size and exactly its first limit
		// documents in ID order — all a response needs for its count, its
		// truncated flag and its docs.
		for _, limit := range []int{0, 1, 5, 50, len(cell) / 2, len(cell), len(cell) + 1} {
			gotDocs, gotCount := got.DrillDownLimit(a, b, limit)
			wantDocs, wantCount := want.DrillDownLimit(a, b, limit)
			gotDocs, wantDocs = AsStored(gotDocs), AsStored(wantDocs)
			if differs(gotCount, wantCount, "the count of DrillDownLimit(%s, %s, %d)", a.Label(), b.Label(), limit) ||
				differs(docIDs(gotDocs), docIDs(wantDocs), "the IDs of DrillDownLimit(%s, %s, %d)", a.Label(), b.Label(), limit) ||
				(len(wantDocs) > 0 && differs(gotDocs, wantDocs, "DrillDownLimit(%s, %s, %d)", a.Label(), b.Label(), limit)) {
				return
			}
		}
	}
	for _, cat := range w.Cats {
		if differs(got.ConceptsInCategory(cat), want.ConceptsInCategory(cat), "ConceptsInCategory(%q)", cat) ||
			differs(got.ConceptDF(cat), want.ConceptDF(cat), "ConceptDF(%q)", cat) {
			return
		}
		for _, d := range w.Dims {
			if differs(got.RelFreqMarginals(cat, d), want.RelFreqMarginals(cat, d), "RelFreqMarginals(%q, %s)", cat, d.Label()) ||
				differs(got.RelativeFrequency(cat, d), want.RelativeFrequency(cat, d), "RelativeFrequency(%q, %s)", cat, d.Label()) {
				return
			}
		}
	}
	for _, f := range w.Fields {
		if differs(got.FieldValues(f), want.FieldValues(f), "FieldValues(%q)", f) {
			return
		}
	}
	for _, t := range w.Tables {
		if differs(got.AssocMarginals(t.Rows, t.Cols), want.AssocMarginals(t.Rows, t.Cols), "AssocMarginals(%s)", t.Name) {
			return
		}
		for _, conf := range t.Confidences {
			if differs(got.AssociateN(t.Rows, t.Cols, conf, 0), want.AssociateN(t.Rows, t.Cols, conf, 0), "AssociateN(%s, confidence %v)", t.Name, conf) {
				return
			}
		}
	}
}

// AsStored returns docs as the store hands them back: a document without
// fields holds a nil map, whichever form it was written from — the one
// thing about a document a segment or a WAL record does not keep. A nil
// list stays nil.
func AsStored(docs []mining.Document) []mining.Document {
	if docs == nil {
		return nil
	}
	out := make([]mining.Document, len(docs))
	for i, d := range docs {
		if len(d.Fields) == 0 {
			d.Fields = nil
		}
		out[i] = d
	}
	return out
}

// abridged prints a value for a report, cut to a readable length.
func abridged(v any) string {
	s := fmt.Sprintf("%+v", v)
	if len(s) > 800 {
		s = s[:800] + fmt.Sprintf("… (%d bytes more)", len(s)-800)
	}
	return s
}

// docIDs lists the documents' IDs, always non-nil: what a drill-down
// divergence is first reported by.
func docIDs(docs []mining.Document) []string {
	ids := make([]string, len(docs))
	for i, d := range docs {
		ids[i] = d.ID
	}
	return ids
}
