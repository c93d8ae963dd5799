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

// Index stores documents with inverted lists per concept and field,
// sealed: it is built whole by Seal (documents), FromBacking (a mapped
// segment) or Materialize (an eager open), each of which prepares its
// query structures (see prepared), and it never changes after. The
// storage itself lives behind a Backing: in-memory maps over heap
// postings, or a read-only mapped segment (see backing.go).
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

// Count returns how many documents match the dimension.
func (ix *Index) Count(d Dim) int {
	ctx := acquireQueryCtx()
	defer releaseQueryCtx(ctx)
	return ix.count(ctx, d)
}

// count is Count under the caller's query context.
func (ix *Index) count(ctx *queryCtx, d Dim) int {
	posts, owned := ix.resolve(ctx, d)
	n := len(posts)
	if owned {
		ctx.putBuf(posts)
	}
	return n
}

// CountBoth returns how many documents match both dimensions: the size
// of their cell as cellPositions counts it, taking none of its documents.
func (ix *Index) CountBoth(a, b Dim) int {
	ctx := acquireQueryCtx()
	defer releaseQueryCtx(ctx)
	return ix.countBoth(ctx, a, b)
}

// countBoth is CountBoth under the caller's query context.
func (ix *Index) countBoth(ctx *queryCtx, a, b Dim) int {
	pos, n := ix.cellPositions(ctx, a, b, 0, ctx.getBuf())
	ctx.putBuf(pos)
	return n
}

// DrillDown returns the documents matching both dimensions — the
// cell-to-documents navigation of Figure 4 ("one can drill down through
// table cells right upto individual documents") — sorted by ID. It is
// the unlimited case of DrillDownLimit.
func (ix *Index) DrillDown(a, b Dim) []Document {
	docs, _ := ix.DrillDownLimit(a, b, -1)
	return docs
}

// DrillDownLimit returns the size of the cell of documents matching both
// dimensions and its first limit documents in ID order (all of them when
// limit is negative). Positions are in ID order (see Backing), so it
// materializes only the documents at the cell's first limit positions
// (cellPositions) — over a mapped backing each one is a full record
// decode.
func (ix *Index) DrillDownLimit(a, b Dim, limit int) (docs []Document, count int) {
	ctx := acquireQueryCtx()
	defer releaseQueryCtx(ctx)
	pos, count := ix.cellPositions(ctx, a, b, limit, ctx.getBuf())
	docs = ix.docsAt(pos)
	ctx.putBuf(pos)
	return docs, count
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

// docsAt materializes the documents at positions, nil for none.
func (ix *Index) docsAt(positions []int) []Document {
	if len(positions) == 0 {
		return nil
	}
	docs := make([]Document, len(positions))
	for i, p := range positions {
		docs[i] = ix.b.Doc(p)
	}
	return docs
}

// ConceptsInCategory returns the distinct canonical forms of a category,
// sorted by document frequency (descending, ties lexicographic): a
// precomputed lookup.
func (ix *Index) ConceptsInCategory(category string) []string {
	names := ix.prep.catNames[category]
	out := make([]string, len(names))
	copy(out, names)
	return out
}

// FieldValues returns the distinct values of a structured field, sorted;
// nil when no document carries the field. A precomputed lookup.
func (ix *Index) FieldValues(field string) []string {
	vals := ix.prep.fieldVals[field]
	if len(vals) == 0 {
		return nil
	}
	out := make([]string, len(vals))
	copy(out, vals)
	return out
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

// RelativeFrequency compares the distribution of category's concepts
// inside the subset defined by featured with their distribution in the
// entire data set, returning rows sorted by descending ratio ("by
// sorting phrases in a category based on the relative frequencies,
// relevant concepts for a specific data set are revealed"). The float
// math lives in FinalizeRelFreq — the shared merge pipeline — over the
// integer marginals this index extracts.
func (ix *Index) RelativeFrequency(category string, featured Dim) []Relevance {
	return FinalizeRelFreq(ix.RelFreqMarginals(category, featured))
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

// Associate builds the two-dimensional association table between row
// and column dimensions at the given confidence level for the interval
// estimate (0 < confidence < 1; anything else, NaN included, means
// DefaultConfidence).
func (ix *Index) Associate(rows, cols []Dim, confidence float64) *AssocTable {
	return ix.AssociateN(rows, cols, confidence, 0)
}

// AssociateN is Associate under the Querier signature: the joint counts
// come from AssocMarginals and the float math from FinalizeAssoc, the
// same two steps SegmentSet and the federation coordinator take. The
// last parameter is ignored (see Querier).
func (ix *Index) AssociateN(rows, cols []Dim, confidence float64, _ int) *AssocTable {
	return FinalizeAssoc(rows, cols, confidence, ix.AssocMarginals(rows, cols))
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

// Trend returns the per-bucket document counts of a dimension, sorted by
// time — "a simple function that examines the increase and decrease of
// occurrences of each concept in a certain period may allow us to
// analyze trends in the topics".
//
// The index counts into one bucket per distinct time of the segment,
// through its time column (timeColumn), and emits the non-empty buckets
// already in time order. A segment of more distinct times than its
// column can name hashes each matching document's time instead.
func (ix *Index) Trend(d Dim) []TrendPoint {
	ctx := acquireQueryCtx()
	defer releaseQueryCtx(ctx)
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
