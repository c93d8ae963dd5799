// Package mining implements the indexing-and-reporting layer of BIVoC
// (§IV.D): documents annotated with concepts and linked structured
// fields are indexed by semantic classification, then analyzed with
//
//   - relevancy analysis with relative frequency (§IV.D.1): compare a
//     concept's density inside a featured subset with its density in the
//     whole collection;
//   - two-dimensional association analysis (§IV.D.2): cross-tabulate two
//     concept/field dimensions and rank cells by the point estimate of
//     the exponential mutual information, Ncell·N / (Nver·Nhor) (Eqn 4),
//     replaced by the left terminal of an interval estimate to stay
//     robust when counts are small;
//   - trend analysis over time buckets;
//   - drill-down from any table cell to the underlying documents
//     (Figure 4's view).
package mining

import (
	"fmt"
	"sort"
	"strings"

	"bivoc/internal/annotate"
)

// Document is one indexed VoC item: its extracted concepts, the
// structured fields attached by the linking engine, and a time bucket.
type Document struct {
	ID       string
	Concepts []annotate.Concept
	// Fields holds structured dimensions from the linked warehouse
	// record, e.g. "outcome" → "reservation", "agent" → "A17".
	Fields map[string]string
	// Time is an arbitrary bucket index (day, week) for trend analysis.
	Time int
}

// Dim identifies one dimension value: either a concept (category +
// canonical form) from the unstructured side, or a structured field
// value. "Some of these concepts could be dimensions from unstructured
// data and others could be from structured data."
type Dim struct {
	// Concept dimension: Category must be non-empty.
	Category  string
	Canonical string // "" means "any concept in Category"
	// Field dimension: Field must be non-empty (and Category empty).
	Field string
	Value string
	// And, when non-empty, makes this a conjunction: a document matches
	// only if it matches every child dimension. Conjunctions power the
	// drill-downs of Figure 4 ("weak-start calls that converted") and
	// compose freely with the other analyses.
	And []Dim
}

// ConceptDim returns a concept dimension.
func ConceptDim(category, canonical string) Dim {
	return Dim{Category: category, Canonical: canonical}
}

// CategoryDim returns a dimension matching any concept of a category.
func CategoryDim(category string) Dim { return Dim{Category: category} }

// FieldDim returns a structured-field dimension.
func FieldDim(field, value string) Dim { return Dim{Field: field, Value: value} }

// AndDim returns the conjunction of dimensions.
func AndDim(dims ...Dim) Dim { return Dim{And: dims} }

// Label renders the dimension for reports.
func (d Dim) Label() string {
	if len(d.And) > 0 {
		parts := make([]string, len(d.And))
		for i, c := range d.And {
			parts[i] = c.Label()
		}
		return strings.Join(parts, " ∧ ")
	}
	if d.Field != "" {
		return d.Field + "=" + d.Value
	}
	if d.Canonical == "" {
		return d.Category
	}
	return d.Canonical + "[" + d.Category + "]"
}

// Index is one sealed segment: documents with inverted lists per concept
// and field. It is built whole by Seal (documents), FromBacking (a mapped
// segment) or Materialize (an eager open), each of which prepares its
// query structures (see prepared), and it never changes after. The
// storage itself lives behind a Backing: in-memory maps over heap
// postings, or a read-only mapped segment (see backing.go). An Index
// holds the per-segment kernels of every query (count, cellPositions,
// trend, relFreqMarginals, assocMarginals, …), and answers each Querier
// method as the set of its one segment (see SegmentSet), so there is one
// query path.
//
// Postings contract: every inverted list is kept sorted by document
// position, and every internal accessor that returns postings —
// leafPostings, resolve, the conjunction memo — returns read-only views.
// Query code must never write through them: intersections accumulate
// into queryCtx scratch buffers or freshly allocated memo slices
// instead. This is what lets an index answer from many server handlers
// concurrently without a lock, and it is enforced by
// TestQueriesNeverMutatePostings.
type Index struct {
	b    Backing
	prep *prepared
}

// Len returns the number of indexed documents.
func (ix *Index) Len() int { return ix.b.DocCount() }

// Doc returns the i-th document.
func (ix *Index) Doc(i int) Document { return ix.b.Doc(i) }

// DocID returns the i-th document's ID without materializing the
// document (cheap over a mapped segment; see Backing.DocID).
func (ix *Index) DocID(i int) string { return ix.b.DocID(i) }

// set is the index as the set of its one segment: how it answers every
// Querier method. It is built per call and stays on the caller's stack.
// An index that held a set containing itself would be a cycle, and a
// finalizer on the index (how TestCompactedRecoveryIsCollected sees one
// freed) would never run.
func (ix *Index) set() SegmentSet { return SegmentSet{segs: []*Index{ix}, total: ix.Len()} }

// The Querier methods of an Index, each the SegmentSet method of the
// same name over the set of its one segment.

// Count returns how many documents match the dimension.
func (ix *Index) Count(d Dim) int { return ix.set().Count(d) }

// CountBoth returns how many documents match both dimensions.
func (ix *Index) CountBoth(a, b Dim) int { return ix.set().CountBoth(a, b) }

// DrillDown returns the documents matching both dimensions, sorted by ID.
func (ix *Index) DrillDown(a, b Dim) []Document { return ix.set().DrillDown(a, b) }

// DrillDownLimit returns the size of the cell of a and b and its first
// limit documents in ID order (all when limit is negative).
func (ix *Index) DrillDownLimit(a, b Dim, limit int) ([]Document, int) {
	return ix.set().DrillDownLimit(a, b, limit)
}

// ConceptsInCategory returns the distinct canonical forms of a category,
// sorted by document frequency (descending, ties lexicographic).
func (ix *Index) ConceptsInCategory(category string) []string {
	return ix.set().ConceptsInCategory(category)
}

// ConceptDF returns a category's vocabulary with document frequencies,
// in ConceptsInCategory's order.
func (ix *Index) ConceptDF(category string) []ConceptCount { return ix.set().ConceptDF(category) }

// FieldValues returns the distinct values of a structured field, sorted;
// nil when no document carries the field.
func (ix *Index) FieldValues(field string) []string { return ix.set().FieldValues(field) }

// RelativeFrequency returns the relative-frequency report of category's
// concepts inside the subset featured defines, by descending ratio.
func (ix *Index) RelativeFrequency(category string, featured Dim) []Relevance {
	return ix.set().RelativeFrequency(category, featured)
}

// RelFreqMarginals returns the integer marginals of RelativeFrequency.
func (ix *Index) RelFreqMarginals(category string, featured Dim) RelFreqMarginals {
	return ix.set().RelFreqMarginals(category, featured)
}

// Associate builds the two-dimensional association table between row
// and column dimensions (see SegmentSet.AssociateN).
func (ix *Index) Associate(rows, cols []Dim, confidence float64) *AssocTable {
	return ix.set().AssociateN(rows, cols, confidence, 0)
}

// AssociateN is Associate under the Querier signature; the last
// parameter is ignored (see Querier).
func (ix *Index) AssociateN(rows, cols []Dim, confidence float64, _ int) *AssocTable {
	return ix.set().AssociateN(rows, cols, confidence, 0)
}

// AssocMarginals returns the integer marginals of AssociateN.
func (ix *Index) AssocMarginals(rows, cols []Dim) AssocMarginals {
	return ix.set().AssocMarginals(rows, cols)
}

// Trend returns the per-bucket document counts of a dimension, sorted by
// time.
func (ix *Index) Trend(d Dim) []TrendPoint { return ix.set().Trend(d) }

// count is Count under the caller's query context.
func (ix *Index) count(ctx *queryCtx, d Dim) int {
	posts, owned := ix.resolve(ctx, d)
	n := len(posts)
	if owned {
		ctx.putBuf(posts)
	}
	return n
}

// countBoth is CountBoth under the caller's query context: the size of
// the cell as cellPositions counts it, taking none of its documents.
func (ix *Index) countBoth(ctx *queryCtx, a, b Dim) int {
	pos, n := ix.cellPositions(ctx, a, b, 0, ctx.getBuf())
	ctx.putBuf(pos)
	return n
}

// cellPositions appends to dst the positions of the first limit documents
// of the cell of a and b in position order (all of them when limit is
// negative), and returns it with the size of the cell. When a side is a
// plain field with a column it does not build the cell (firstByColumn);
// otherwise it intersects the two sides' postings.
func (ix *Index) cellPositions(ctx *queryCtx, a, b Dim, limit int, dst []int) ([]int, int) {
	pa, ownedA := ix.resolve(ctx, a)
	pb, ownedB := ix.resolve(ctx, b)
	dst, count, byColumn := ix.firstByColumn(a, b, pa, pb, limit, dst)
	if !byColumn {
		n := len(dst)
		dst = intersectInto(dst, pa, pb)
		if count = len(dst) - n; limit >= 0 {
			dst = dst[:n+min(limit, count)]
		}
	}
	if ownedB {
		ctx.putBuf(pb)
	}
	if ownedA {
		ctx.putBuf(pa)
	}
	return dst, count
}

// firstByColumn counts the cell of a and b, whose postings are pa and
// pb, and appends to dst its first limit positions (all when limit is
// negative) without building the cell, when a side is a plain field with
// a column (fieldColumn): the cell is then the other side's documents
// that hold the field's value, that side's tally over the field counts
// them (countIn), and a walk of its postings takes the first limit. ok is
// false for any other shape.
func (ix *Index) firstByColumn(a, b Dim, pa, pb []int, limit int, dst []int) (_ []int, count int, ok bool) {
	row, posts, col := a, pa, b
	ids, value, ok := ix.fieldColumn(b)
	if !ok {
		ids, value, ok = ix.fieldColumn(a)
		row, posts, col = b, pb, a
	}
	if !ok || value == 0 { // value 0: no document carries the field's value
		return dst, 0, ok
	}
	count = ix.countIn(row, posts, col.Field, ids, value)
	take := count
	if limit >= 0 {
		take = min(limit, count)
	}
	for _, p := range posts {
		if take == 0 {
			break
		}
		if ids[p] == value {
			dst = append(dst, p)
			take--
		}
	}
	return dst, count, true
}

// Relevance is one row of a relative-frequency report (and of /v1/relfreq).
type Relevance struct {
	Concept string `json:"concept"`
	// InSubset and InAll are document frequencies.
	InSubset   int `json:"in_subset"`
	SubsetSize int `json:"subset_size"`
	InAll      int `json:"in_all"`
	N          int `json:"n"`
	// Ratio is (InSubset/SubsetSize) / (InAll/N) — how over-represented
	// the concept is inside the featured subset.
	Ratio float64 `json:"ratio"`
}

// Cell is one cell of a two-dimensional association table (and of /v1/associate).
type Cell struct {
	Row Dim `json:"-"`
	Col Dim `json:"-"`
	// Ncell, Nver, Nhor, N are the counts of Eqn 4.
	Ncell int `json:"ncell"`
	Nver  int `json:"nver"`
	Nhor  int `json:"nhor"`
	N     int `json:"n"`
	// PointIndex is Ncell·N / (Nver·Nhor) — the point estimate of the
	// exponential mutual information.
	PointIndex float64 `json:"point_index"`
	// LowerIndex replaces each density with the conservative end of its
	// Wilson interval ("we use the left terminal value (smallest value)
	// of the interval estimation instead of the point estimation").
	LowerIndex float64 `json:"lower_index"`
	// RowShare is Ncell over the row's total across the table's columns —
	// the within-row percentage the paper's Tables III and IV report
	// (each row of those tables sums to 100% across the outcome columns;
	// documents matching the row but none of the listed columns, e.g.
	// service calls in an outcome table, do not dilute the percentages).
	RowShare float64 `json:"row_share"`
}

// AssocTable is a full two-dimensional association analysis.
type AssocTable struct {
	Rows, Cols []Dim
	Cells      [][]Cell // [row][col]
	Confidence float64
}

// StrongestCells returns all cells ordered by descending LowerIndex —
// "we can identify pairs of concepts that exhibit stronger relationships
// than other pairs".
func (t *AssocTable) StrongestCells() []Cell {
	var out []Cell
	for _, row := range t.Cells {
		out = append(out, row...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].LowerIndex != out[j].LowerIndex {
			return out[i].LowerIndex > out[j].LowerIndex
		}
		if out[i].Row.Label() != out[j].Row.Label() {
			return out[i].Row.Label() < out[j].Row.Label()
		}
		return out[i].Col.Label() < out[j].Col.Label()
	})
	return out
}

// Render prints the table's row-share percentages, the format of the
// paper's Tables III and IV.
func (t *AssocTable) Render() string {
	out := ""
	width := 24
	out += fmt.Sprintf("%-*s", width, "")
	for _, c := range t.Cols {
		out += fmt.Sprintf("%*s", width, c.Label())
	}
	out += "\n"
	for i, r := range t.Rows {
		out += fmt.Sprintf("%-*s", width, r.Label())
		for j := range t.Cols {
			out += fmt.Sprintf("%*s", width, fmt.Sprintf("%.0f%% (%d)", 100*t.Cells[i][j].RowShare, t.Cells[i][j].Ncell))
		}
		out += "\n"
	}
	return out
}

// TrendPoint is one time bucket of a concept trend (and of /v1/trend).
type TrendPoint struct {
	Time  int `json:"time"`
	Count int `json:"count"`
}

// trend is Trend over this index under the caller's query context. It
// counts into one bucket per distinct time of the segment, through its
// time column (timeColumn), and emits the non-empty buckets already in
// time order. A segment of more distinct times than its column can name
// hashes each matching document's time instead.
func (ix *Index) trend(ctx *queryCtx, d Dim) []TrendPoint {
	posts, owned := ix.resolve(ctx, d)
	if owned {
		defer ctx.putBuf(posts)
	}
	times, at, byColumn := ix.timeColumn()
	if !byColumn {
		counts := map[int]int{}
		for _, p := range posts {
			counts[ix.b.DocTime(p)]++
		}
		out := make([]TrendPoint, 0, len(counts))
		for t, c := range counts {
			out = append(out, TrendPoint{t, c})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Time < out[j].Time })
		return out
	}
	counts := ctx.getBuf()
	counts = append(counts, make([]int, len(times))...)
	defer ctx.putBuf(counts)
	for _, p := range posts {
		counts[at[p]]++
	}
	buckets := 0
	for _, c := range counts {
		if c > 0 {
			buckets++
		}
	}
	out := make([]TrendPoint, 0, buckets)
	for k, c := range counts {
		if c > 0 {
			out = append(out, TrendPoint{times[k], c})
		}
	}
	return out
}

// TrendSlope fits a least-squares line to the trend and returns its
// slope in documents per bucket (0 for fewer than 2 points).
func TrendSlope(points []TrendPoint) float64 {
	n := float64(len(points))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for _, p := range points {
		x, y := float64(p.Time), float64(p.Count)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / denom
}
