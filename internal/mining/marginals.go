package mining

import (
	"slices"
	"strings"
)

// Marginal extraction — the per-segment kernels of the integer halves of
// the split operations in merge.go. SegmentSet's fan-in runs them on each
// segment under one query context and merges the parts, and the serving
// layer sends the merged marginals to a federation coordinator as the
// partials of its /v1/shard exchange, so that the coordinator can finish
// the float math once over merged counts.

// conceptDF is ConceptDF over this index: a copy of the category's
// precomputed vocabulary, already in report order.
func (ix *Index) conceptDF(category string) []ConceptCount {
	return append([]ConceptCount{}, ix.prep.catEntries[category]...)
}

// fieldValues is FieldValues over this index: a copy of the field's
// precomputed sorted values, nil when no document carries the field.
func (ix *Index) fieldValues(field string) []string {
	vals := ix.prep.fieldVals[field]
	if len(vals) == 0 {
		return nil
	}
	return append([]string(nil), vals...)
}

// relFreqMarginals extracts the integer marginals of a
// relative-frequency report over this index's documents, under the
// caller's query context: the corpus size, the featured subset's size,
// and each category concept's frequency inside the subset and overall.
// Concepts are sorted by name for a deterministic wire form;
// FinalizeRelFreq re-orders by ratio.
//
// The in-subset counts come from each concept's list. When the featured
// dimension is a plain field with a column (fieldColumn), a concept's
// count is a lookup in its tally over the field (countIn), or one walk
// of its list reading each document's value id off the column;
// otherwise the subset's documents are marked first, each list is walked
// once, and the marks are cleared after.
func (ix *Index) relFreqMarginals(ctx *queryCtx, category string, featured Dim) RelFreqMarginals {
	subset, owned := ix.resolve(ctx, featured)
	m := RelFreqMarginals{N: ix.b.DocCount(), SubsetSize: len(subset)}
	entries := ix.prep.catEntries[category]
	ids, value, byColumn := ix.fieldColumn(featured)
	var marks []uint64
	if !byColumn {
		marks = ctx.docMarks(m.N)
		for _, p := range subset {
			marks[p] = 1
		}
	}
	if len(entries) > 0 {
		m.Concepts = make([]ConceptMarginal, len(entries))
	}
	for k, e := range entries {
		posts := ix.b.ConceptPostings(category, e.Concept)
		in := 0
		switch {
		case !byColumn:
			for _, p := range posts {
				in += int(marks[p])
			}
		case value != 0:
			in = ix.countIn(ConceptDim(category, e.Concept), posts, featured.Field, ids, value)
		}
		m.Concepts[k] = ConceptMarginal{Concept: e.Concept, InSubset: in, InAll: len(posts)}
	}
	if !byColumn {
		for _, p := range subset {
			marks[p] = 0
		}
	}
	if owned {
		ctx.putBuf(subset)
	}
	slices.SortFunc(m.Concepts, func(a, b ConceptMarginal) int { return strings.Compare(a.Concept, b.Concept) })
	return m
}

// marginPostings resolves the postings of every row and column of an
// association table for the lifetime of one assocMarginals call, into
// headers from ctx: leaf and memoized lists are shared read-only views;
// scratch-computed conjunctions are copied out so the scratch can be
// reused. The caller clears the headers (clearMargins) before ctx goes
// back to the pool, so that a pooled context pins no segment's lists.
func (ix *Index) marginPostings(ctx *queryCtx, rows, cols []Dim) (rowPosts, colPosts [][]int) {
	all := ctx.margins[:0]
	for _, dims := range [2][]Dim{rows, cols} {
		for _, d := range dims {
			posts, owned := ix.resolve(ctx, d)
			if owned {
				all = append(all, append([]int(nil), posts...))
				ctx.putBuf(posts)
			} else {
				all = append(all, posts)
			}
		}
	}
	ctx.margins = all
	return all[:len(rows):len(rows)], all[len(rows):]
}

// clearMargins drops the headers marginPostings handed out.
func (ctx *queryCtx) clearMargins() {
	clear(ctx.margins)
	ctx.margins = ctx.margins[:0]
}

// newAssocMarginals shapes the marginals of a rows × cols table over n
// documents from each dimension's postings: the per-dimension counts are
// the list lengths, the cell counts start at zero.
func newAssocMarginals(n int, rowPosts, colPosts [][]int) AssocMarginals {
	m := AssocMarginals{
		N:     n,
		Nver:  make([]int, len(rowPosts)),
		Nhor:  make([]int, len(colPosts)),
		Ncell: make([][]int, len(rowPosts)),
	}
	for i, posts := range rowPosts {
		m.Nver[i] = len(posts)
	}
	for j, posts := range colPosts {
		m.Nhor[j] = len(posts)
	}
	cells := make([]int, len(rowPosts)*len(colPosts))
	for i := range m.Ncell {
		m.Ncell[i] = cells[i*len(colPosts) : (i+1)*len(colPosts) : (i+1)*len(colPosts)]
	}
	return m
}

// assocMarginals extracts the integer marginals of an association table
// over this index's documents: per-dimension counts and per-cell joint
// counts, shaped rows × cols.
//
// The cells are counted by walking each row's postings (countCells): a
// plain field column through the field's per-document column, every
// other column by marking its documents first.
func (ix *Index) assocMarginals(ctx *queryCtx, rows, cols []Dim) AssocMarginals {
	defer ctx.clearMargins()
	rowPosts, colPosts := ix.marginPostings(ctx, rows, cols)
	m := newAssocMarginals(ix.b.DocCount(), rowPosts, colPosts)
	ix.countCells(ctx, m.Ncell, rows, rowPosts, cols, colPosts)
	return m
}
