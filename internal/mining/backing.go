package mining

// Backing is the storage behind an Index: the document store plus the
// three inverted-list families. The materialized in-memory maps that
// Seal builds satisfy it, and so does internal/store's mapped segment
// reader, which leaves postings varint-encoded inside an mmap'd
// segment file and decodes them lazily on first touch. Query code
// reaches storage only through this interface — the fast path, the
// naive oracle, and the segment fan-in all do — which is what makes
// query results byte-identical over either representation.
//
// Contract: document positions are in strictly increasing ID order
// (DocID(i) < DocID(i+1)) — Seal builds that order, and internal/store's
// segment reader refuses a file that breaks it — so a cell's first
// positions are its first documents by ID. Every postings list is
// strictly increasing document positions in [0, DocCount()), lookups
// return nil when the key is absent, and returned slices are read-only
// views (the same postings contract documented on Index). The Each* enumerations visit every
// list of one family in unspecified order — every caller re-sorts by
// a total order — and hand the list's length as df so implementations
// can answer vocabulary queries without decoding any postings.
// Implementations must be safe for concurrent readers; none of these
// methods mutates.
type Backing interface {
	DocCount() int
	Doc(i int) Document
	// DocID and DocTime return Doc(i).ID / Doc(i).Time without
	// materializing the document: recovery builds ID skip-sets and Trend
	// buckets every matching document, and over a mapped segment each is
	// a couple of varint reads instead of a full record decode.
	DocID(i int) string
	DocTime(i int) int

	ConceptPostings(category, canonical string) []int
	CategoryPostings(category string) []int
	FieldPostings(field, value string) []int

	EachConcept(fn func(category, canonical string, df int))
	EachCategory(fn func(category string, df int))
	EachField(fn func(field, value string, df int))
}

// FromBacking wraps a read-only backing (e.g. a mapped segment) as a
// queryable Index, its query structures built through the interface
// without decoding any postings. The backing must already satisfy the
// contract, ID order included — the store validates both before handing
// one over.
func FromBacking(b Backing) *Index { return prepare(b) }

// Materialize copies a backing onto the heap — every document and
// postings list read out of b once — so the index never reads b again:
// the store's eager open, through the reader mapped segments are served
// by. The lists b returns are kept (Backing hands out read-only views).
func Materialize(b Backing) *Index {
	mb := newMemBacking()
	mb.docs = make([]Document, b.DocCount())
	for i := range mb.docs {
		mb.docs[i] = b.Doc(i)
	}
	b.EachConcept(func(category, canonical string, _ int) {
		mb.byConcept[[2]string{category, canonical}] = b.ConceptPostings(category, canonical)
	})
	b.EachCategory(func(category string, _ int) {
		mb.byCat[category] = b.CategoryPostings(category)
	})
	b.EachField(func(field, value string, _ int) {
		mb.byField[[2]string{field, value}] = b.FieldPostings(field, value)
	})
	return prepare(mb)
}

// Backing returns the storage behind the index (read-only).
func (ix *Index) Backing() Backing { return ix.b }

// memBacking is the materialized backing: plain Go maps over heap
// postings slices, built by Seal or copied from another backing by
// Materialize.
type memBacking struct {
	docs      []Document
	byConcept map[[2]string][]int // {category, canonical} → doc positions
	byCat     map[string][]int    // category → doc positions
	byField   map[[2]string][]int // {field, value} → doc positions
}

func newMemBacking() *memBacking {
	return &memBacking{
		byConcept: make(map[[2]string][]int),
		byCat:     make(map[string][]int),
		byField:   make(map[[2]string][]int),
	}
}

// add indexes a document. Inverted lists record each document at most
// once per key (documents often repeat a concept).
func (m *memBacking) add(doc Document) {
	pos := len(m.docs)
	m.docs = append(m.docs, doc)
	seenC := map[[2]string]bool{}
	seenCat := map[string]bool{}
	for _, c := range doc.Concepts {
		k := [2]string{c.Category, c.Canonical}
		if !seenC[k] {
			seenC[k] = true
			m.byConcept[k] = append(m.byConcept[k], pos)
		}
		if !seenCat[c.Category] {
			seenCat[c.Category] = true
			m.byCat[c.Category] = append(m.byCat[c.Category], pos)
		}
	}
	for f, v := range doc.Fields {
		m.byField[[2]string{f, v}] = append(m.byField[[2]string{f, v}], pos)
	}
}

func (m *memBacking) DocCount() int      { return len(m.docs) }
func (m *memBacking) Doc(i int) Document { return m.docs[i] }
func (m *memBacking) DocID(i int) string { return m.docs[i].ID }
func (m *memBacking) DocTime(i int) int  { return m.docs[i].Time }

func (m *memBacking) ConceptPostings(category, canonical string) []int {
	return m.byConcept[[2]string{category, canonical}]
}

func (m *memBacking) CategoryPostings(category string) []int {
	return m.byCat[category]
}

func (m *memBacking) FieldPostings(field, value string) []int {
	return m.byField[[2]string{field, value}]
}

func (m *memBacking) EachConcept(fn func(category, canonical string, df int)) {
	for k, posts := range m.byConcept {
		fn(k[0], k[1], len(posts))
	}
}

func (m *memBacking) EachCategory(fn func(category string, df int)) {
	for cat, posts := range m.byCat {
		fn(cat, len(posts))
	}
}

func (m *memBacking) EachField(fn func(field, value string, df int)) {
	for k, posts := range m.byField {
		fn(k[0], k[1], len(posts))
	}
}
