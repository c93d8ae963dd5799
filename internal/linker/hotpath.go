package linker

import (
	"sort"
	"strings"

	"bivoc/internal/fuzzy"
	"bivoc/internal/phonetics"
	"bivoc/internal/warehouse"
)

// tokenFeats caches the derived forms of one document token for the
// lifetime of a single link call: the lowercase text plus, lazily, its
// phone sequence, trigram set, digit string and parsed amount — exactly
// the pieces the naive similarity re-derives on every comparison. memo
// additionally caches full similarity results per (attribute, row):
// buildLists' sorted access fills it and scoreEntity's random access
// (the Threshold Algorithm's expensive half) replays it.
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

	// memo is indexed by the engine-wide attribute index (Engine.attrIndex).
	memo []map[warehouse.RowID]float64
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

// ctxAttr is one resolved token-type→attribute route within a table:
// the attribute's weight, kind and floor snapshotted for the call, plus
// direct handles on the table and its cached per-row match features.
type ctxAttr struct {
	idx    int // engine-wide attribute index (memo key)
	weight float64
	kind   warehouse.MatchKind
	floor  float64
	col    string
	tab    *warehouse.Table
	feats  []warehouse.MatchFeatures
}

// linkCtx is the scratch state of one link call. The engine itself stays
// read-only during linking (the churn pipeline links from several
// workers concurrently), so everything mutable — token features, the
// similarity memo, the candidate buffer — lives here.
type linkCtx struct {
	e      *Engine
	byText map[string]*tokenFeats
	buf    []warehouse.RowID
}

func (e *Engine) newLinkCtx() *linkCtx {
	return &linkCtx{e: e, byText: make(map[string]*tokenFeats)}
}

// tokenFeats returns the (shared) feature cache of a token text.
// Duplicate tokens share one entry, so their features and memoized
// similarities are computed once.
func (ctx *linkCtx) tokenFeats(text string) *tokenFeats {
	tf, ok := ctx.byText[text]
	if !ok {
		tf = &tokenFeats{
			text:  text,
			lower: strings.ToLower(text),
			memo:  make([]map[warehouse.RowID]float64, len(ctx.e.attrOrder)),
		}
		ctx.byText[text] = tf
	}
	return tf
}

// resolveFeats maps tokens to their feature caches, aligned by index.
func (ctx *linkCtx) resolveFeats(tokens []Token) []*tokenFeats {
	out := make([]*tokenFeats, len(tokens))
	for i, tok := range tokens {
		out[i] = ctx.tokenFeats(tok.Text)
	}
	return out
}

// route resolves the engine's token-type→attribute targets against one
// table: column kinds, snapshotted weights and floors, and the cached
// feature slices, so the scoring loops touch no maps or schemas.
func (ctx *linkCtx) route(table string) map[TokenType][]ctxAttr {
	out := make(map[TokenType][]ctxAttr)
	tab := ctx.e.db.MustTable(table)
	schema := tab.Schema()
	for tt, attrs := range ctx.e.targets {
		for _, at := range attrs {
			if at.Table != table {
				continue
			}
			ci := schemaCol(schema, at.Column)
			kind := schema.Columns[ci].Match
			out[tt] = append(out[tt], ctxAttr{
				idx:    ctx.e.attrIndex[at],
				weight: ctx.e.weights[at],
				kind:   kind,
				floor:  ctx.e.floorFor(kind),
				col:    at.Column,
				tab:    tab,
				feats:  tab.Features(at.Column),
			})
		}
	}
	return out
}

// sim returns sim(token, row.attribute), memoized per (token, attribute,
// row) so the TA merge's random access never recomputes what sorted
// access already paid for.
func (ctx *linkCtx) sim(tf *tokenFeats, ca *ctxAttr, row warehouse.RowID) float64 {
	m := tf.memo[ca.idx]
	if v, ok := m[row]; ok {
		return v
	}
	var v float64
	if ctx.e.naive {
		v = similarity(ca.kind, tf.text, ca.tab.GetString(row, ca.col))
	} else {
		v = ctx.featSim(tf, ca, row)
	}
	if m == nil {
		m = make(map[warehouse.RowID]float64)
		tf.memo[ca.idx] = m
	}
	m[row] = v
	return v
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

// scoreEntity computes the full Eqn-3 score of an entity for the tokens
// (random access in Threshold-Algorithm terms), replaying memoized
// similarities where sorted access already computed them.
func (ctx *linkCtx) scoreEntity(tokens []Token, feats []*tokenFeats, route map[TokenType][]ctxAttr, row warehouse.RowID) float64 {
	total := 0.0
	for i := range tokens {
		cas := route[tokens[i].Type]
		for j := range cas {
			ca := &cas[j]
			sim := ctx.sim(feats[i], ca, row)
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
	out := t.heap
	sort.Slice(out, func(i, j int) bool { return outranks(out[i], out[j]) })
	return out
}
