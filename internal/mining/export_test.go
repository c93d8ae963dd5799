package mining

// What the equivalence suites in package mining_test (external, so that
// they can import internal/voctest) need of the internals.

// MarkBits is the widest table one mark-then-probe pass counts.
const MarkBits = markBits

// ConjWordsFloor, ConjBudget and ConjCost are the conjunction memo's
// budget arithmetic; ConjCost prices an entry of n postings.
const ConjWordsFloor = conjWordsFloor

func ConjBudget(docs int) int        { return conjBudget(docs) }
func ConjCost(key string, n int) int { return conjCost(key, make([]int, n)) }
func (ix *Index) IDOrdered() bool    { return ix.idOrdered() }

// InOrder builds the index of docs at the positions given, in the order
// given — the layout of a segment file that Seal did not write, whose
// positions need not be in ID order.
func InOrder(docs []Document) *Index {
	mb := newMemBacking()
	for _, d := range docs {
		mb.add(d)
	}
	return prepare(mb)
}

// ColumnsBuilt is how many per-document columns (one per field, one of
// times) an index has built so far.
func (ix *Index) ColumnsBuilt() int { return int(ix.prep.columnsBuilt.Load()) }

// ConjMemo reports an index's conjunction memo: its entries, the words
// it accounts for, and its budget.
func (ix *Index) ConjMemo() (entries, words, limit int) {
	return len(ix.prep.conj), ix.prep.conjWords, ix.prep.conjLimit
}

// ConjMemoHeld re-prices every memo entry: what the memo's word count
// must equal.
func (ix *Index) ConjMemoHeld() int {
	held := 0
	for key, posts := range ix.prep.conj {
		held += conjCost(key, posts)
	}
	return held
}

// MarkPass drives the one-pass cell count directly over the dims squared.
// It returns the counts, what one countIntersect per cell says they are,
// and how many documents the pass left marked in the pooled scratch
// (none, or the next query on that scratch miscounts).
func (ix *Index) MarkPass(dims []Dim) (got, want [][]int, marked int) {
	ctx := acquireQueryCtx()
	defer releaseQueryCtx(ctx)
	posts := ix.marginPostings(ctx, dims)
	got, want = make([][]int, len(posts)), make([][]int, len(posts))
	for i := range posts {
		got[i], want[i] = make([]int, len(posts)), make([]int, len(posts))
	}
	ix.countCells(ctx, got, posts, dims, posts)
	for i, a := range posts {
		for j, b := range posts {
			want[i][j] = countIntersect(a, b)
		}
	}
	for _, mark := range ctx.docMarks(ix.Len()) {
		if mark != 0 {
			marked++
		}
	}
	return got, want, marked
}
