// Package voctest is the test world the equivalence suites of every
// package share: a seeded random corpus with the query battery that is
// run against it, the fixed parity corpus of the serving-tier tests, the
// /v1 URL battery over each, and the one comparator (CheckQueriers) that
// holds a fast Querier to the naive view of a monolithic index.
//
// It is test support, not product: it takes a testing.TB, nothing outside
// _test.go files imports it, and `make loc` / `make knobs` leave it out.
// It imports internal/mining and internal/annotate and nothing else of
// the tree, so the in-package tests of internal/server, internal/store
// and internal/fed can import it without a cycle (internal/mining's own
// suites that use it live in package mining_test for the same reason).
package voctest

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"bivoc/internal/annotate"
	"bivoc/internal/mining"
)

// The random world's vocabulary: a few categories with overlapping
// canonical forms and two structured fields. Some strings are ones JSON
// has to escape (<, &, a quote, a backslash, U+2028) or cannot carry at
// all (a byte that is not UTF-8); none holds a character the dimension
// grammar reserves, so every label round-trips through ParseDim.
var (
	worldCats  = []string{"issue", "brand", "sentiment"}
	worldCanon = map[string][]string{
		"issue":     {"billing", "outage", "up<grade>", "can&cel", "roam\"ing"},
		"brand":     {"acme", "globex", "ini\u2028tech"},
		"sentiment": {"positive", "negative"},
	}
	worldFields    = []string{"outcome", "agent"}
	worldFieldVals = map[string][]string{
		"outcome": {"reservation", "walk\\away", "callback"},
		"agent":   {"A1", "A2", "A3", "A\xff4"},
	}
)

// NotUTF8 is the one dimension of the battery whose label is not valid
// UTF-8 (documents carry the value; URL-escaped it is %FF). It sits in
// one pair and in no tree or table, and in no URL: a Querier takes any
// bytes, the daemons answer such a parameter 400.
var NotUTF8 = mining.FieldDim("agent", "A\xff4")

// Table is one association table of a world's battery.
type Table struct {
	Name       string
	Rows, Cols []mining.Dim
	// Confidences are the levels AssociateN is compared at (0 means the
	// default); the integer marginals are compared once.
	Confidences []float64
}

// World is one random document collection plus the query battery
// exercised against it. Everything is a function of the seed and the
// document count, so a failure is reproduced by naming the two.
type World struct {
	// Docs holds the documents in arrival order, which is a shuffle of
	// their ID order: an index built by adding them as they come has no
	// position order a limited drill-down could stop early on, one sealed
	// from them (mining.Seal, Segments) has.
	Docs []mining.Document
	// Dims is the dimension battery: leaves and conjunctions, some with no
	// documents, then Trees.
	Dims []mining.Dim
	// Trees are seeded random Dim trees: conjunctions up to three deep
	// over the vocabulary and over values nothing carries.
	Trees []mining.Dim
	// Pairs are the (row, col) operands of CountBoth and the drill-downs,
	// with conjunctions and trees on either side.
	Pairs [][2]mining.Dim
	// Fieldless are the cells (the last of Pairs) of the first document that
	// holds a nil Fields map and the first that holds an empty one.
	Fieldless [][2]mining.Dim
	// Cells are the (row, col) operands of the drill-down battery, one of
	// each shape a sealed segment counts a limited drill-down's cell by: a
	// plain field on either side (the field's column), on both, and on
	// neither (the postings of the two sides), with fields and values
	// nothing carries.
	Cells  [][2]mining.Dim
	Cats   []string // categories, one of them absent from the corpus
	Fields []string // field names, one of them absent
	Tables []Table
}

// Wide is the width of the battery's widest table: one more column than a
// mark word of the one-pass cell count has bits.
const Wide = 65

// NewWorld builds the world of a seed: ndocs documents whose postings
// range from empty through dense, over time buckets on both sides of
// zero, with optional fields and an occasional repeated concept.
func NewWorld(seed int64, ndocs int) *World {
	rng := rand.New(rand.NewSource(seed))
	docs := make([]mining.Document, ndocs)
	// fieldless holds, per document without fields, a cell of few documents
	// that it is in: everything it says, against its first category.
	var fieldless [][2]mining.Dim
	for i := range docs {
		var concepts []annotate.Concept
		for _, cat := range worldCats {
			for _, cn := range worldCanon[cat] {
				if rng.Intn(4) == 0 {
					start := rng.Intn(20)
					concepts = append(concepts, annotate.Concept{Category: cat, Canonical: cn, Start: start, End: start + 1 + rng.Intn(3)})
				}
			}
		}
		// Repeat a concept sometimes: it must still be indexed once.
		if len(concepts) > 0 && rng.Intn(3) == 0 {
			concepts = append(concepts, concepts[rng.Intn(len(concepts))])
		}
		// A document without concepts carries a nil slice, the form the
		// store decodes to. One without fields carries a nil map (what the
		// store decodes to) or an empty one (what a source that always
		// makes the map hands over), turn about: the two must answer every
		// query alike, and CheckQueriers tells them apart nowhere.
		var fields map[string]string
		for _, f := range worldFields {
			if vals := worldFieldVals[f]; rng.Intn(5) != 0 {
				if fields == nil {
					fields = map[string]string{}
				}
				fields[f] = vals[rng.Intn(len(vals))]
			}
		}
		if fields == nil && len(concepts) > 0 {
			if len(fieldless)%2 == 1 {
				fields = map[string]string{}
			}
			all := make([]mining.Dim, len(concepts))
			for j, c := range concepts {
				all[j] = mining.ConceptDim(c.Category, c.Canonical)
			}
			fieldless = append(fieldless, [2]mining.Dim{mining.AndDim(all...), mining.CategoryDim(concepts[0].Category)})
		}
		docs[i] = mining.Document{ID: fmt.Sprintf("doc-%04d", i), Concepts: concepts, Fields: fields, Time: rng.Intn(9) - 3}
	}
	rng.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })

	d := []mining.Dim{
		mining.ConceptDim("issue", "billing"),
		mining.ConceptDim("issue", "outage"),
		mining.ConceptDim("brand", "acme"),
		mining.ConceptDim("sentiment", "negative"),
		mining.ConceptDim("issue", "no-such-concept"), // empty postings
		mining.CategoryDim("issue"),
		mining.CategoryDim("brand"),
		mining.CategoryDim("missing-category"), // empty postings
		mining.FieldDim("outcome", "reservation"),
		mining.FieldDim("agent", "A2"),
		mining.FieldDim("outcome", "no-such-value"), // empty postings
		mining.AndDim(mining.ConceptDim("issue", "billing"), mining.FieldDim("outcome", "reservation")),
		mining.AndDim(mining.CategoryDim("brand"), mining.ConceptDim("sentiment", "negative"), mining.FieldDim("agent", "A1")),
		// Duplicate leaf: canonicalizes to the same conjunction cache key.
		mining.AndDim(mining.ConceptDim("issue", "can&cel"), mining.ConceptDim("issue", "can&cel")),
		// Nested conjunction: flattening must agree with the naive recursion.
		mining.AndDim(mining.ConceptDim("issue", "up<grade>"),
			mining.AndDim(mining.FieldDim("agent", "A3"), mining.CategoryDim("sentiment"))),
		// Conjunction with an empty leaf short-circuits to no documents.
		mining.AndDim(mining.CategoryDim("issue"), mining.ConceptDim("brand", "no-such-brand")),
	}
	w := &World{
		Docs:   docs,
		Cats:   append(append([]string(nil), worldCats...), "missing-category"),
		Fields: append(append([]string(nil), worldFields...), "missing-field"),
	}
	for range 8 {
		w.Trees = append(w.Trees, randomTree(rng, 3))
	}
	w.Dims = append(append([]mining.Dim(nil), d...), w.Trees...)

	// Every dimension against a rotating partner keeps the battery
	// quadratic-free while still mixing empty, leaf and conjunction
	// operands; then each tree on the left of a leaf, on its right, and
	// against another tree.
	for i, a := range w.Dims {
		w.Pairs = append(w.Pairs, [2]mining.Dim{a, w.Dims[(i*7+3)%len(w.Dims)]})
	}
	for k, t := range w.Trees {
		leaf := d[(k*3)%11]
		w.Pairs = append(w.Pairs, [2]mining.Dim{t, leaf}, [2]mining.Dim{leaf, t}, [2]mining.Dim{t, w.Trees[(k+1)%len(w.Trees)]})
	}
	w.Pairs = append(w.Pairs, [2]mining.Dim{NotUTF8, d[5]})
	w.Fieldless = fieldless[:min(len(fieldless), 2)]
	w.Pairs = append(w.Pairs, w.Fieldless...)

	callback, uncarried := mining.FieldDim("outcome", "callback"), mining.FieldDim("missing-field", "x")
	w.Cells = [][2]mining.Dim{
		{d[0], d[8]}, {d[5], d[9]}, // concept × field
		{d[8], d[0]}, {d[9], d[6]}, // field × concept
		{d[0], d[2]}, {d[5], d[6]}, // concept × concept
		{d[11], d[9]}, {d[12], d[8]}, // conjunction × field
		{d[9], d[11]},              // field × conjunction
		{d[8], d[8]}, {d[9], d[9]}, // field × the same field
		{d[8], callback}, {d[8], d[9]}, // field × another value of it, and × another field
		{d[5], uncarried}, {uncarried, d[0]}, // a field nothing carries
		{d[5], d[10]}, {d[10], d[8]}, // a value nothing carries
	}

	wide := make([]mining.Dim, Wide)
	for j := range wide {
		wide[j] = w.Dims[j%len(w.Dims)]
	}
	every := []float64{0, 0.90, 0.95, 0.99}
	rows, cols := []mining.Dim{d[0], d[2], d[4], d[11]}, []mining.Dim{d[8], d[9], d[10]}
	w.Tables = []Table{
		{"plain", rows, cols, every},
		{"a repeated column", rows, []mining.Dim{d[8], d[9], d[8]}, every},
		{"65 columns", rows, wide, every},
		{"no rows", nil, cols, every},
		{"leaf rows and columns", d[:8], d[8:11], []float64{0.95}},
		{"conjunction rows", []mining.Dim{d[11], d[12], d[5]}, []mining.Dim{d[8], d[9]}, []float64{0.95}},
		{"conjunction columns", []mining.Dim{d[0], d[5], d[6]}, []mining.Dim{d[11], d[9], d[12]}, []float64{0.95}},
		{"trees on both sides", w.Trees[:4], w.Trees[4:], []float64{0.95}},
		{"the whole battery squared", w.Dims, w.Dims, []float64{0.95}},
		// A sealed segment counts a plain field column off the field's
		// per-document column and marks every other column: each shape of
		// that split, on either side of the table.
		{"field rows", []mining.Dim{d[8], d[9], d[10], mining.FieldDim("outcome", "callback")}, []mining.Dim{d[0], d[1], d[2], d[5]}, []float64{0.95}},
		{"an uncarried field", []mining.Dim{d[0], d[5], d[8]}, []mining.Dim{mining.FieldDim("missing-field", "x"), d[8]}, []float64{0.95}},
		{"mixed columns", []mining.Dim{d[0], d[5], d[9], d[12]}, []mining.Dim{d[8], d[0], d[11], d[8], mining.FieldDim("outcome", "callback")}, []float64{0.95}},
	}
	return w
}

// OneTimePerSegment returns the world with its documents re-timed so that
// Segments(k) deals every segment documents of a single time: the
// document of ID rank i is at time 2·(i mod k) − 5. A segment's trend is
// then one bucket, and only the merge across segments makes the several
// of the monolithic index. Everything else — documents, battery, tables —
// is the world's own.
func (w *World) OneTimePerSegment(k int) *World {
	rank := make(map[string]int, len(w.Docs))
	for i, d := range w.DocsByID() {
		rank[d.ID] = i
	}
	c := *w
	c.Docs = make([]mining.Document, len(w.Docs))
	for i, d := range w.Docs {
		d.Time = 2*(rank[d.ID]%k) - 5
		c.Docs[i] = d
	}
	return &c
}

// randomLeaf picks a concept, category or field dimension, now and then
// one nothing in the corpus carries — but never the value that is not
// UTF-8: only NotUTF8 names that one, so that the URL battery (the daemons
// refuse such a label) loses one pair and not every tree that happened to
// draw it.
func randomLeaf(rng *rand.Rand) mining.Dim {
	pick := func(vals []string, absent string) string {
		if rng.Intn(8) == 0 {
			return absent
		}
		for {
			if v := vals[rng.Intn(len(vals))]; utf8.ValidString(v) {
				return v
			}
		}
	}
	switch rng.Intn(3) {
	case 0:
		cat := worldCats[rng.Intn(len(worldCats))]
		return mining.ConceptDim(cat, pick(worldCanon[cat], "no-such-concept"))
	case 1:
		return mining.CategoryDim(pick(worldCats, "missing-category"))
	default:
		f := worldFields[rng.Intn(len(worldFields))]
		return mining.FieldDim(f, pick(worldFieldVals[f], "no-such-value"))
	}
}

// randomTree builds a conjunction of two or three children, each a leaf
// or, while depth lasts, another conjunction.
func randomTree(rng *rand.Rand, depth int) mining.Dim {
	children := make([]mining.Dim, 2+rng.Intn(2))
	for i := range children {
		if depth > 1 && rng.Intn(3) == 0 {
			children[i] = randomTree(rng, depth-1)
		} else {
			children[i] = randomLeaf(rng)
		}
	}
	return mining.AndDim(children...)
}

// Index returns the monolithic index mining.Seal builds over a copy of
// docs (the slice given is left as it is). Its Naive view is the oracle
// of every suite.
func Index(docs []mining.Document) *mining.Index {
	return mining.Seal(append([]mining.Document(nil), docs...))
}

// Index is the monolithic index over the world's documents.
func (w *World) Index() *mining.Index { return Index(w.Docs) }

// DocsByID returns a copy of the world's documents sorted by ID.
func (w *World) DocsByID() []mining.Document {
	docs := append([]mining.Document(nil), w.Docs...)
	sort.Slice(docs, func(i, j int) bool { return docs[i].ID < docs[j].ID })
	return docs
}

// Segments deals the world's documents, in ID order, round-robin into k
// sealed segments. Round-robin interleaves IDs across segments, so a
// document's position in its segment never coincides with its position in
// the monolithic index — the harshest layout for fan-in bugs. A k past
// the document count leaves the last segments empty.
func (w *World) Segments(k int) []*mining.Index {
	parts := make([][]mining.Document, k)
	for i, d := range w.DocsByID() {
		parts[i%k] = append(parts[i%k], d)
	}
	segs := make([]*mining.Index, k)
	for i, docs := range parts {
		segs[i] = mining.Seal(docs)
	}
	return segs
}

func labels(dims []mining.Dim) []string {
	out := make([]string, len(dims))
	for i, d := range dims {
		out[i] = d.Label()
	}
	return out
}

// URLs is the /v1 battery over the world: every endpoint family, with
// the battery's dimensions, tables and pairs as parameters.
func (w *World) URLs() []string {
	urls := []string{
		"/v1/count?" + url.Values{"dim": labels(w.Dims)}.Encode(),
		"/v1/concepts?category=missing-category",
		"/v1/concepts?field=missing-field",
		"/v1/relfreq?" + url.Values{"category": {"missing-category"}, "featured": {w.Dims[0].Label()}}.Encode(),
	}
	// The first three tables and the last three, the field-column shapes
	// (the fourth has no rows, which the grammar rejects).
	for _, t := range append(w.Tables[:3:3], w.Tables[len(w.Tables)-3:]...) {
		urls = append(urls, "/v1/associate?"+url.Values{"row": labels(t.Rows), "col": labels(t.Cols), "confidence": {"0.9"}}.Encode())
	}
	urls = append(urls, "/v1/associate?"+url.Values{"row": labels(w.Trees[:4]), "col": labels(w.Trees[4:])}.Encode())
	for i, cat := range worldCats {
		urls = append(urls,
			"/v1/relfreq?"+url.Values{"category": {cat}, "featured": {w.Dims[8+i*3].Label()}}.Encode(),
			"/v1/relfreq?"+url.Values{"category": {cat}, "featured": {w.Trees[i].Label()}}.Encode(),
			"/v1/concepts?"+url.Values{"category": {cat}}.Encode())
	}
	for _, f := range worldFields {
		urls = append(urls, "/v1/concepts?"+url.Values{"field": {f}}.Encode())
	}
	for i, p := range w.Pairs {
		if !utf8.ValidString(p[0].Label() + p[1].Label()) {
			continue
		}
		q := url.Values{"row": {p[0].Label()}, "col": {p[1].Label()}}
		if i >= len(w.Pairs)-len(w.Fieldless) {
			q.Set("limit", "100000") // the whole cell, so that the field-less document is in the body
		} else if i%3 != 0 {
			q.Set("limit", []string{"0", "7", "100000"}[i%3])
		}
		urls = append(urls, "/v1/drilldown?"+q.Encode())
	}
	// Each drill-down shape at limits 0, 1, half its cell and past it.
	naive := w.Index().Naive()
	for _, c := range w.Cells {
		size, prev := naive.CountBoth(c[0], c[1]), -1
		for _, limit := range []int{0, 1, size / 2, size + 1} {
			if limit > prev {
				urls = append(urls, "/v1/drilldown?"+url.Values{"row": {c[0].Label()}, "col": {c[1].Label()}, "limit": {strconv.Itoa(limit)}}.Encode())
			}
			prev = max(prev, limit)
		}
	}
	for _, d := range w.Dims {
		urls = append(urls, "/v1/trend?"+url.Values{"dim": {d.Label()}}.Encode())
	}
	return urls
}

// parityTopics are the topic concepts ParityDoc cycles through.
var parityTopics = []string{"billing", "coverage", "roadside", "upgrade"}

// ParityDoc builds the i-th document of the fixed serving-tier corpus:
// every document carries a parity field (so parity=even + parity=odd must
// equal the total — the torn-read invariant the concurrency tests watch),
// an outcome field, a topic concept, every fifth a place, and a time
// bucket.
func ParityDoc(i int) mining.Document {
	parity := "even"
	if i%2 == 1 {
		parity = "odd"
	}
	outcome := []string{"reservation", "unbooked", "service"}[i%3]
	concepts := []annotate.Concept{
		{Category: "topic", Canonical: parityTopics[i%len(parityTopics)]},
	}
	if i%5 == 0 {
		concepts = append(concepts, annotate.Concept{Category: "place", Canonical: "austin"})
	}
	return mining.Document{
		ID:       fmt.Sprintf("doc-%05d", i),
		Concepts: concepts,
		Fields:   map[string]string{"parity": parity, "outcome": outcome},
		Time:     i / 10,
	}
}

// ParityDocs returns the first n documents of the parity corpus.
func ParityDocs(n int) []mining.Document {
	docs := make([]mining.Document, n)
	for i := range docs {
		docs[i] = ParityDoc(i)
	}
	return docs
}

// ParityURLs exercises every /v1 endpoint family (both /v1/concepts modes
// included) against the parity corpus.
func ParityURLs() []string {
	return []string{
		"/v1/count?" + url.Values{"dim": {"parity=even", "parity=odd", "topic", "austin[place]"}}.Encode(),
		"/v1/associate?" + url.Values{"row": {"billing[topic]", "coverage[topic]", "roadside[topic]"}, "col": {"outcome=reservation", "outcome=unbooked", "outcome=service"}}.Encode(),
		"/v1/associate?" + url.Values{"row": {"topic"}, "col": {"parity=odd"}, "confidence": {"0.99"}}.Encode(),
		"/v1/relfreq?" + url.Values{"category": {"topic"}, "featured": {"outcome=reservation"}}.Encode(),
		"/v1/drilldown?" + url.Values{"row": {"austin[place]"}, "col": {"outcome=service"}}.Encode(),
		// limit ≥ corpus size: every segment or shard returns its whole
		// cell, so the merge's re-sort alone decides the document order.
		"/v1/drilldown?" + url.Values{"row": {"topic"}, "col": {"parity=even"}, "limit": {"100000"}}.Encode(),
		"/v1/trend?" + url.Values{"dim": {"billing[topic]"}}.Encode(),
		"/v1/concepts?category=topic",
		"/v1/concepts?field=outcome",
	}
}

// Bodies renders what a daemon must answer to each /v1 URL of a battery:
// answer's response for the endpoint and its parameters, marshalled the
// way every body is framed (json.Marshal plus a newline). A caller hands
// it a closure over the endpoint table's Plan.Local and a naive view, so
// that the bytes are computed in the test process from nothing but the
// documents. URLs outside /v1 are skipped.
func Bodies(tb testing.TB, urls []string, answer func(endpoint string, params url.Values) (any, error)) map[string][]byte {
	tb.Helper()
	out := make(map[string][]byte, len(urls))
	for _, raw := range urls {
		u, err := url.Parse(raw)
		if err != nil {
			tb.Fatalf("battery URL %q: %v", raw, err)
		}
		endpoint, ok := strings.CutPrefix(u.Path, "/v1/")
		if !ok {
			continue
		}
		resp, err := answer(endpoint, u.Query())
		if err != nil {
			tb.Fatalf("%s: %v", raw, err)
		}
		body, err := json.Marshal(resp)
		if err != nil {
			tb.Fatalf("%s: %v", raw, err)
		}
		out[raw] = append(body, '\n')
	}
	return out
}
