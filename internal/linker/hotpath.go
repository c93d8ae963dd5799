package linker

import (
	"cmp"
	"slices"
	"strings"
	"sync"

	"bivoc/internal/fuzzy"
	"bivoc/internal/phonetics"
	"bivoc/internal/warehouse"
)

// tokenFeats caches the derived forms of one document token for the
// lifetime of a single link call: the lowercase text plus, lazily, its
// phone sequence, trigram set, digit string and parsed amount — exactly
// the pieces the naive similarity re-derives on every comparison — and
// what sorted access learned about it per attribute.
type tokenFeats struct {
	text  string
	lower string

	phones     []phonetics.Phone
	phonesOK   bool
	grams      map[string]struct{}
	digits     string
	digitsOK   bool
	amount     float64
	amountOK   bool
	amountDone bool

	// memo is indexed by the engine-wide attribute index (ctxAttr.idx).
	memo []attrMemo
}

// attrMemo is what one call knows of one (token, attribute): its head,
// from the engine's cache or ranked here, and, once a call needs the
// whole list, the attribute's candidate rows for the token as the index
// returns them, sorted and duplicate-free, with the token's similarity to
// each. The Threshold Algorithm's random access finds a row in the rows
// by binary search, or else in the head, and computes, without storing,
// the rows it misses (the merge scores a row once).
type attrMemo struct {
	rows   []warehouse.RowID
	sims   []float64 // sims[i] = sim(token, rows[i])
	built  bool
	head   head
	headOK bool
}

// reset makes tf the features of a new token, keeping its buffers.
func (tf *tokenFeats) reset(text string, attrs int) {
	memo := slices.Grow(tf.memo[:0], attrs)[:attrs]
	for i := range memo {
		memo[i] = attrMemo{rows: memo[i].rows[:0], sims: memo[i].sims[:0]}
	}
	*tf = tokenFeats{text: text, lower: strings.ToLower(text), memo: memo}
}

func (tf *tokenFeats) namePhones() []phonetics.Phone {
	if !tf.phonesOK {
		tf.phones = phonetics.ToPhones(tf.lower)
		tf.phonesOK = true
	}
	return tf.phones
}

func (tf *tokenFeats) gramSet() map[string]struct{} {
	if tf.grams == nil {
		tf.grams = fuzzy.NGramSet(tf.lower, 3)
	}
	return tf.grams
}

func (tf *tokenFeats) digitStr() string {
	if !tf.digitsOK {
		tf.digits = fuzzy.DigitString(tf.lower)
		tf.digitsOK = true
	}
	return tf.digits
}

func (tf *tokenFeats) amountVal() (float64, bool) {
	if !tf.amountDone {
		tf.amount, tf.amountOK = ParseAmount(tf.lower)
		tf.amountDone = true
	}
	return tf.amount, tf.amountOK
}

// ctxAttr is one resolved token-type→attribute route within a table: the
// attribute's kind, floor and table handle, resolved once in NewEngine,
// plus the weight and the cached per-row match features a call reads when
// it binds the table (both can change between calls).
type ctxAttr struct {
	idx    int // engine-wide attribute index (memo key)
	tt     TokenType
	weight float64
	kind   warehouse.MatchKind
	floor  float64
	col    string
	tab    *warehouse.Table
	feats  []warehouse.MatchFeatures
}

// tableRoute is the engine's routing into one table: its attributes,
// grouped by token type and in configuration order within a type.
type tableRoute struct {
	table string
	tab   *warehouse.Table
	attrs []ctxAttr
}

// linkTok is one document token within the bound table.
type linkTok struct {
	tf   *tokenFeats
	tt   TokenType
	cas  []ctxAttr   // the attributes its type routes to: a run of linkCtx.attrs
	list []listEntry // its ranked candidates, by score desc then row asc
	// partial: list is only a prefix of them (see head.list); the merge
	// ranks the rest when it reads past it.
	partial bool
}

// linkCtx is the scratch state of one link call. The churn pipeline links
// from several workers concurrently, so the engine changes nothing during
// linking but its head cache, which locks, and everything else mutable —
// token features, the similarity memo, lists, merge state — lives here.
// Contexts are pooled and keep their buffers from call to call: begin and
// bind overwrite every field a call reads before it reads it.
type linkCtx struct {
	e      *Engine
	byText map[string]*tokenFeats
	feats  []*tokenFeats // every one this context made; the first len(byText) are in use
	attrs  []ctxAttr     // the bound table's routes with this call's weights and features
	toks   []linkTok     // aligned with the call's tokens
	pos    []int
	seen   map[warehouse.RowID]bool
	top    topK
}

// ctxPool is shared by every engine: Naive copies an Engine by value.
var ctxPool = sync.Pool{New: func() any {
	return &linkCtx{byText: make(map[string]*tokenFeats), seen: make(map[warehouse.RowID]bool)}
}}

// begin takes a context from the pool and resolves the call's tokens to
// their features. Duplicate tokens share one tokenFeats, so their
// features and memoized similarities are computed once.
func (e *Engine) begin(tokens []Token) *linkCtx {
	ctx := ctxPool.Get().(*linkCtx)
	ctx.e = e
	clear(ctx.byText)
	ctx.toks = slices.Grow(ctx.toks[:0], len(tokens))[:len(tokens)]
	for i, tok := range tokens {
		tf, ok := ctx.byText[tok.Text]
		if !ok {
			n := len(ctx.byText)
			if n == len(ctx.feats) {
				ctx.feats = append(ctx.feats, new(tokenFeats))
			}
			tf = ctx.feats[n]
			tf.reset(tok.Text, len(e.attrOrder))
			ctx.byText[tok.Text] = tf
		}
		ctx.toks[i].tf, ctx.toks[i].tt = tf, tok.Type
	}
	return ctx
}

// release returns the context to the pool holding no engine and no table.
func (ctx *linkCtx) release() {
	clear(ctx.attrs[:cap(ctx.attrs)])
	ctx.e = nil
	ctxPool.Put(ctx)
}

// bind points the context at one table: the table's routes with the
// weights and feature columns of this moment, and each token's run of
// them.
func (ctx *linkCtx) bind(rt *tableRoute) {
	ctx.attrs = append(ctx.attrs[:0], rt.attrs...)
	for i := range ctx.attrs {
		ca := &ctx.attrs[i]
		ca.weight = ctx.e.weights[ctx.e.attrOrder[ca.idx]]
		ca.feats = ca.tab.Features(ca.col)
		if ctx.e.heads != nil {
			ctx.e.heads.dropStale(ca.idx, ca.tab.Len())
		}
	}
	for i := range ctx.toks {
		t := &ctx.toks[i]
		lo := 0
		for lo < len(ctx.attrs) && ctx.attrs[lo].tt != t.tt {
			lo++
		}
		hi := lo
		for hi < len(ctx.attrs) && ctx.attrs[hi].tt == t.tt {
			hi++
		}
		t.cas = ctx.attrs[lo:hi]
	}
}

// candidates returns the (token, attribute) memo, filling it on first use:
// the index's candidates and the token's similarity to each.
func (ctx *linkCtx) candidates(tf *tokenFeats, ca *ctxAttr) *attrMemo {
	m := &tf.memo[ca.idx]
	if !m.built {
		m.built = true
		m.rows = ca.tab.CandidatesAppend(m.rows, ca.col, tf.text)
		for _, row := range m.rows {
			m.sims = append(m.sims, ctx.compute(tf, ca, row))
		}
	}
	return m
}

// head returns the (token, attribute) head: the engine's cached one, or
// one ranked from the memo and cached.
func (ctx *linkCtx) head(tf *tokenFeats, ca *ctxAttr) *head {
	m := &tf.memo[ca.idx]
	if !m.headOK {
		h, ok := ctx.e.heads.get(ca.idx, tf.text)
		if !ok {
			h = rankHead(ctx.candidates(tf, ca), ca.floor)
			ctx.e.heads.put(ca.idx, tf.text, h)
		}
		m.head, m.headOK = h, true
	}
	return &m.head
}

// sim returns sim(token, row.attribute) from the memo when sorted access
// already paid for it.
func (ctx *linkCtx) sim(tf *tokenFeats, ca *ctxAttr, row warehouse.RowID) float64 {
	m := &tf.memo[ca.idx]
	if i, ok := slices.BinarySearch(m.rows, row); ok {
		return m.sims[i]
	}
	if s, ok := m.head.sim(row); ok {
		return s
	}
	return ctx.compute(tf, ca, row)
}

// compute is the similarity itself: similarity() on the naive view,
// featSim otherwise.
func (ctx *linkCtx) compute(tf *tokenFeats, ca *ctxAttr, row warehouse.RowID) float64 {
	if ctx.e.naive {
		return similarity(ca.kind, tf.text, ca.tab.GetString(row, ca.col))
	}
	return ctx.featSim(tf, ca, row)
}

// featSim is similarity() over cached features. Every branch performs
// the same float operations in the same order as the naive path on the
// same (lowercased) inputs, so results are bit-for-bit identical — the
// equivalence tests in equiv_test.go enforce this.
func (ctx *linkCtx) featSim(tf *tokenFeats, ca *ctxAttr, row warehouse.RowID) float64 {
	f := &ca.feats[row]
	switch ca.kind {
	case warehouse.MatchName:
		best := fuzzy.TokenSetSimilarityBestWords(tf.lower, f.Words)
		tp := tf.namePhones()
		for _, wp := range f.WordPhones {
			if phoneSimBound(len(tp), len(wp)) <= best {
				continue // the value only ever feeds this max
			}
			if ps := phonetics.PhoneSimilarity(tp, wp); ps > best {
				best = ps
			}
		}
		return best
	case warehouse.MatchDigits:
		return fuzzy.DigitSimilarityDigits(tf.digitStr(), f.Digits)
	case warehouse.MatchText:
		return fuzzy.DiceNGramSets(tf.gramSet(), f.Grams)
	case warehouse.MatchNumeric:
		tv, ok := tf.amountVal()
		if !ok || !f.AmountOK {
			return 0
		}
		return fuzzy.NumericProximity(tv, f.Amount, 0.5)
	default:
		if tf.lower == f.Lower {
			return 1
		}
		return 0
	}
}

// phoneSimBound bounds phonetics.PhoneSimilarity from above for sequences
// of la and lb phones: aligning them costs at least |la-lb| insertions at
// 0.7 each. The margin covers the DP summing its 0.7s in another order
// than this closed form.
func phoneSimBound(la, lb int) float64 {
	n := max(la, lb, 1)
	return 1 - 0.7*float64(max(la-lb, lb-la))/float64(n) + 1e-9
}

// scoreEntity computes the full Eqn-3 score of an entity for the tokens
// (random access in Threshold-Algorithm terms).
func (ctx *linkCtx) scoreEntity(toks []linkTok, row warehouse.RowID) float64 {
	total := 0.0
	for i := range toks {
		t := &toks[i]
		for j := range t.cas {
			ca := &t.cas[j]
			sim := ctx.sim(t.tf, ca, row)
			if sim < ca.floor {
				continue
			}
			total += ca.weight * sim
		}
	}
	return total
}

// topK keeps the k best matches under the total order (Score desc, Row
// asc) in a bounded min-heap: the root is the current k-th best, so an
// insertion costs O(log k) instead of the former full re-sort per push,
// and the root is exactly the top[k-1] the TA termination test reads.
// The order is total over distinct rows, so the kept set — and the final
// sorted output — match the sort-and-truncate baseline exactly.
type topK struct {
	k    int
	heap []Match // min-heap by rank: root ranks lowest among kept
}

// outranks reports whether a ranks strictly above b — the same order the
// final result sort uses.
func outranks(a, b Match) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Row < b.Row
}

func (t *topK) full() bool { return len(t.heap) >= t.k }

// kth returns the current k-th best match (only valid when full).
func (t *topK) kth() Match { return t.heap[0] }

func (t *topK) push(m Match) {
	if len(t.heap) < t.k {
		t.heap = append(t.heap, m)
		i := len(t.heap) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !outranks(t.heap[p], t.heap[i]) {
				break
			}
			t.heap[p], t.heap[i] = t.heap[i], t.heap[p]
			i = p
		}
		return
	}
	if !outranks(m, t.heap[0]) {
		return // ranks below the current k-th best: not kept
	}
	t.heap[0] = m
	i, n := 0, len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && outranks(t.heap[min], t.heap[l]) {
			min = l
		}
		if r < n && outranks(t.heap[min], t.heap[r]) {
			min = r
		}
		if min == i {
			break
		}
		t.heap[i], t.heap[min] = t.heap[min], t.heap[i]
		i = min
	}
}

// sorted returns the kept matches ranked best-first (destructive).
func (t *topK) sorted() []Match {
	slices.SortFunc(t.heap, func(a, b Match) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.Row, b.Row))
	})
	return t.heap
}
