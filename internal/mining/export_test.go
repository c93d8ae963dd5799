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

// ColumnsBuilt is how many per-document columns (one per field, one of
// times) an index has built so far.
func (ix *Index) ColumnsBuilt() int { return int(ix.prep.columnsBuilt.Load()) }

// ConjMemo reports an index's conjunction memo: its entries, the words
// it accounts for (its tallies' included), and its budget.
func (ix *Index) ConjMemo() (entries, words, limit int) {
	p := ix.prep
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.conj), p.conjWords, p.conjLimit
}

// ConjMemoHeld re-prices every memo entry, conjunctions and tallies: what
// the memo's word count must equal.
func (ix *Index) ConjMemoHeld() int {
	p := ix.prep
	p.mu.RLock()
	defer p.mu.RUnlock()
	held := 0
	for key, posts := range p.conj {
		held += conjCost(key, posts)
	}
	for key, t := range p.tallies {
		held += tallyCost(key, t)
	}
	return held
}

// SetMemoLimit replaces the budget of an index's memo, conjunctions and
// tallies alike; a limit of 0 keeps nothing.
func (ix *Index) SetMemoLimit(words int) {
	p := ix.prep
	p.mu.Lock()
	defer p.mu.Unlock()
	p.conjLimit = words
}

// Tallies reports how many tallies an index's memo holds.
func (ix *Index) Tallies() int {
	p := ix.prep
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.tallies)
}

// HasTally reports whether the memo holds the tally of a leaf row over a
// field's column.
func (ix *Index) HasTally(row Dim, field string) bool {
	p := ix.prep
	p.mu.RLock()
	defer p.mu.RUnlock()
	_, ok := p.tallies[tallyKey{row.Category, row.Canonical, row.Field, row.Value, field}]
	return ok
}

// TallyCost prices the tally of a leaf row over a field of n values.
func TallyCost(row Dim, field string, n int) int {
	return tallyCost(tallyKey{row.Category, row.Canonical, row.Field, row.Value, field}, make([]int, n+1))
}

// MarkPass drives the one-pass cell count directly over the dims squared.
// It returns the counts and how many documents the pass left marked in
// the pooled scratch (none, or the next query on that scratch
// miscounts).
func (ix *Index) MarkPass(dims []Dim) (got [][]int, marked int) {
	ctx := acquireQueryCtx()
	defer releaseQueryCtx(ctx)
	defer ctx.clearMargins()
	posts, _ := ix.marginPostings(ctx, dims, dims)
	got = make([][]int, len(posts))
	for i := range posts {
		got[i] = make([]int, len(posts))
	}
	ix.countCells(ctx, got, dims, posts, dims, posts)
	for _, mark := range ctx.docMarks(ix.Len()) {
		if mark != 0 {
			marked++
		}
	}
	return got, marked
}
