package mining

import "sort"

// This file implements the LSM-style segmented index: instead of one
// monolithic Index resealed per snapshot swap (O(corpus)), the serving
// layer holds N immutable sealed segments and publishes a swap by
// sealing only the documents that arrived since the last one (O(new
// docs)). Queries fan in across segments over disjoint document sets:
//
//   - counts, joint counts, trends and drill-downs are additive;
//   - relative frequencies and association tables merge on the integer
//     marginals first and only then apply the ratio / Wilson-interval
//     float math, in exactly the monolithic operation order — never by
//     averaging per-segment floats.
//
// That merge discipline is what makes a SegmentSet byte-identical to one
// Index over the whole corpus (pinned by segments_test.go
// against the monolithic NaiveIndex at segment counts {1, 2, 8} and
// across compactions).

// Querier is the read side shared by the sealed *Index and the
// segmented *SegmentSet: every analytics entry point the serving layer
// exposes, plus the marginal extractions a shard answers a federation
// coordinator with (see merge.go). There is one query path: a SegmentSet
// answers each method by fanning in over its segments (fanIn), and an
// Index answers as the set of its one segment. Responses are
// byte-identical for the same corpus however it is segmented. Both rest
// on the ID order of every index's positions (see Backing): a
// drill-down's documents are its cell's first positions, merged by ID
// across segments.
//
// AssociateN's workers parameter is ignored: a table is one pass over
// each segment's postings (AssocMarginals) plus FinalizeAssoc, and there
// has been no cell grid to fan out since the cells stopped being one
// merge each. It is still in the signature only because cmd/bivocbench,
// which a product change may not edit, calls the method with four
// arguments; it goes with the next benchmark change.
type Querier interface {
	Len() int
	Count(d Dim) int
	CountBoth(a, b Dim) int
	DrillDown(a, b Dim) []Document
	DrillDownLimit(a, b Dim, limit int) (docs []Document, count int)
	ConceptsInCategory(category string) []string
	FieldValues(field string) []string
	RelativeFrequency(category string, featured Dim) []Relevance
	AssociateN(rows, cols []Dim, confidence float64, workers int) *AssocTable
	Trend(d Dim) []TrendPoint
	ConceptDF(category string) []ConceptCount
	RelFreqMarginals(category string, featured Dim) RelFreqMarginals
	AssocMarginals(rows, cols []Dim) AssocMarginals
}

var (
	_ Querier = (*Index)(nil)
	_ Querier = (*SegmentSet)(nil)
)

// SegmentSet is an immutable view over sealed segments with disjoint
// document sets (no document ID appears in more than one segment).
// Like a sealed Index, it is safe for concurrent queries; segments are
// never mutated through it.
type SegmentSet struct {
	segs  []*Index
	total int
}

// NewSegmentSet returns a set over the given segments. The slice is
// copied; the segments themselves are shared.
func NewSegmentSet(segs ...*Index) *SegmentSet {
	s := &SegmentSet{segs: append([]*Index(nil), segs...)}
	for _, ix := range s.segs {
		s.total += ix.Len()
	}
	return s
}

// Seal builds the sealed segment of docs. It is the one way an index is
// made from documents — a daemon's publish, its recovered WAL tail, a
// StreamIndex Snapshot or Seal and MergeSegments all end here: docs is
// sorted by ID in place and indexed in that order, so the result does
// not depend on the order the documents arrived in and positions are in
// ID order (see Backing). A repeated document ID panics: it means an
// upstream retry delivered an item twice, or two segments under
// compaction overlap, and every count over the segment would be
// silently wrong.
func Seal(docs []Document) *Index {
	sort.Slice(docs, func(i, j int) bool { return docs[i].ID < docs[j].ID })
	mb := newMemBacking()
	for i, d := range docs {
		if i > 0 && docs[i-1].ID == d.ID {
			panicDuplicateID("Seal", d.ID)
		}
		mb.add(d)
	}
	return prepare(mb)
}

func panicDuplicateID(op, id string) {
	panic("mining: " + op + ": duplicate document ID " + id +
		" (an upstream retry delivered the same item twice?)")
}

// MergeSegments compacts segments into one sealed segment holding the
// union of their documents. Every query result over the merged segment
// is identical to the fan-in over its inputs, so compaction is invisible
// to readers.
func MergeSegments(segs ...*Index) *Index {
	var docs []Document
	for _, ix := range segs {
		for i, n := 0, ix.Len(); i < n; i++ {
			docs = append(docs, ix.b.Doc(i))
		}
	}
	return Seal(docs)
}

// Len returns the total number of documents across segments.
func (s SegmentSet) Len() int { return s.total }

// fanIn answers one query over the set: it takes one query context, runs
// share on every segment under it — so a conjunction's memo key is built
// once per query (queryCtx.memoKey) — and merges the parts with merge,
// which adds them over the disjoint document sets. A lone segment's
// share is the answer as it is.
func fanIn[T any](s SegmentSet, share func(ctx *queryCtx, ix *Index) T, merge func(...T) T) T {
	ctx := acquireQueryCtx()
	defer releaseQueryCtx(ctx)
	if len(s.segs) == 1 {
		return share(ctx, s.segs[0])
	}
	parts := make([]T, len(s.segs))
	for i, ix := range s.segs {
		parts[i] = share(ctx, ix)
	}
	return merge(parts...)
}

// Count sums the per-segment matches — segments hold disjoint documents —
// under one query context like fanIn.
func (s SegmentSet) Count(d Dim) int {
	ctx := acquireQueryCtx()
	defer releaseQueryCtx(ctx)
	n := 0
	for _, ix := range s.segs {
		n += ix.count(ctx, d)
	}
	return n
}

// CountBoth sums the per-segment joint counts, under one query context
// like Count.
func (s SegmentSet) CountBoth(a, b Dim) int {
	ctx := acquireQueryCtx()
	defer releaseQueryCtx(ctx)
	n := 0
	for _, ix := range s.segs {
		n += ix.countBoth(ctx, a, b)
	}
	return n
}

// DrillDown returns the documents matching both dimensions — the
// cell-to-documents navigation of Figure 4 ("one can drill down through
// table cells right upto individual documents") — sorted by ID. It is
// the unlimited case of DrillDownLimit.
func (s SegmentSet) DrillDown(a, b Dim) []Document {
	docs, _ := s.DrillDownLimit(a, b, -1)
	return docs
}

// DrillDownLimit returns the size of the cell of documents matching both
// dimensions and its first limit documents in ID order (all of them when
// limit is negative). IDs are unique across segments, so the cell's
// first limit documents are among each segment's own first limit: each
// segment yields the positions of those (cellPositions), and a k-way
// merge by ID materializes only the limit that are returned (mergeByID)
// — over a mapped backing each one is a full record decode.
func (s SegmentSet) DrillDownLimit(a, b Dim, limit int) (docs []Document, count int) {
	ctx := acquireQueryCtx()
	defer releaseQueryCtx(ctx)
	pos, ends := ctx.getBuf(), ctx.getBuf()
	for _, ix := range s.segs {
		var n int
		pos, n = ix.cellPositions(ctx, a, b, limit, pos)
		count += n
		ends = append(ends, len(pos))
	}
	docs = s.mergeByID(ctx, pos, ends, limit)
	ctx.putBuf(ends)
	ctx.putBuf(pos)
	return docs, count
}

// mergeByID materializes the first limit documents (all when limit is
// negative), in ID order, of the segments' position lists — segment j's
// are pos[ends[j-1]:ends[j]], in ID order — by a k-way merge that reads
// each head's ID without decoding its document (Backing.DocID) and calls
// Backing.Doc only for the documents it returns. Nil for none.
func (s SegmentSet) mergeByID(ctx *queryCtx, pos, ends []int, limit int) []Document {
	take := len(pos)
	if limit >= 0 {
		take = min(limit, take)
	}
	if take == 0 {
		return nil
	}
	next, heads := ctx.getBuf(), ctx.heads[:0] // each segment's first position not yet taken, and its ID
	start := 0
	for j, end := range ends {
		next = append(next, start)
		id := ""
		if start < end {
			id = s.segs[j].b.DocID(pos[start])
		}
		heads = append(heads, id)
		start = end
	}
	docs := make([]Document, take)
	for k := range docs {
		m := -1
		for j, id := range heads {
			if next[j] < ends[j] && (m < 0 || id < heads[m]) {
				m = j
			}
		}
		b := s.segs[m].b
		docs[k] = b.Doc(pos[next[m]])
		if next[m]++; next[m] < ends[m] {
			heads[m] = b.DocID(pos[next[m]])
		}
	}
	clear(heads) // the pooled context must not pin a segment's IDs
	ctx.heads = heads[:0]
	ctx.putBuf(next)
	return docs
}

// ConceptDF returns a category's vocabulary with document frequencies,
// merged across segments into report order (frequency descending, ties
// lexicographic) — the counted form of ConceptsInCategory.
func (s SegmentSet) ConceptDF(category string) []ConceptCount {
	return fanIn(s, func(_ *queryCtx, ix *Index) []ConceptCount { return ix.conceptDF(category) }, MergeConceptCounts)
}

// ConceptsInCategory returns the distinct canonical forms of a category
// in ConceptDF's order. Always non-nil.
func (s SegmentSet) ConceptsInCategory(category string) []string {
	return ConceptNames(s.ConceptDF(category))
}

// FieldValues returns the distinct values of a structured field across
// segments, sorted; nil when no document carries the field.
func (s SegmentSet) FieldValues(field string) []string {
	return fanIn(s, func(_ *queryCtx, ix *Index) []string { return ix.fieldValues(field) }, MergeFieldValues)
}

// RelFreqMarginals merges the per-segment integer marginals — subset
// size, in-subset counts, corpus frequencies — over the disjoint
// document sets.
func (s SegmentSet) RelFreqMarginals(category string, featured Dim) RelFreqMarginals {
	return fanIn(s, func(ctx *queryCtx, ix *Index) RelFreqMarginals {
		return ix.relFreqMarginals(ctx, category, featured)
	}, MergeRelFreqMarginals)
}

// RelativeFrequency compares the distribution of category's concepts
// inside the subset defined by featured with their distribution in the
// entire data set, returning rows sorted by descending ratio ("by
// sorting phrases in a category based on the relative frequencies,
// relevant concepts for a specific data set are revealed"). The integer
// marginals merge per concept across segments first, and only then does
// FinalizeRelFreq — the shared merge pipeline — apply the ratio math.
func (s SegmentSet) RelativeFrequency(category string, featured Dim) []Relevance {
	return FinalizeRelFreq(s.RelFreqMarginals(category, featured))
}

// AssocMarginals merges the per-segment association marginals: every
// count adds over the disjoint document sets. Shaped rows × cols even
// over zero segments.
func (s SegmentSet) AssocMarginals(rows, cols []Dim) AssocMarginals {
	if len(s.segs) == 0 {
		return newAssocMarginals(0, make([][]int, len(rows)), make([][]int, len(cols)))
	}
	return fanIn(s, func(ctx *queryCtx, ix *Index) AssocMarginals {
		return ix.assocMarginals(ctx, rows, cols)
	}, MergeAssocMarginals)
}

// AssociateN builds the two-dimensional association table between row
// and column dimensions at the given confidence level for the interval
// estimate (0 < confidence < 1; anything else, NaN included, means
// DefaultConfidence), from marginals merged across segments: per-dimension
// counts and per-cell joint counts are summed as integers, and only then
// does each cell run the float pipeline (FinalizeAssoc — point index,
// Wilson intervals from the merged counts via stats.WilsonIntervalZ,
// never averaged per-segment intervals). These are the same two steps a
// federation coordinator takes over its shards' marginals. The last
// parameter is ignored (see Querier).
func (s SegmentSet) AssociateN(rows, cols []Dim, confidence float64, _ int) *AssocTable {
	return FinalizeAssoc(rows, cols, confidence, s.AssocMarginals(rows, cols))
}

// Trend returns the per-bucket document counts of a dimension, sorted by
// time — "a simple function that examines the increase and decrease of
// occurrences of each concept in a certain period may allow us to
// analyze trends in the topics" — merging the per-segment buckets via
// MergeTrends. Non-nil even when empty.
func (s SegmentSet) Trend(d Dim) []TrendPoint {
	return fanIn(s, func(ctx *queryCtx, ix *Index) []TrendPoint { return ix.trend(ctx, d) }, MergeTrends)
}
