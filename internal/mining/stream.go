package mining

import (
	"fmt"
	"sync"
)

// StreamIndex is the incremental, concurrency-safe path into the mining
// layer: documents can be Added from many pipeline workers while
// association tables, relevancy reports, trends and drill-downs are
// queried concurrently — the Customer-Experience-Data-Mart requirement
// that reporting stays available while data keeps arriving.
//
// Semantics are sealed-snapshot: every query answers over exactly the
// documents whose Add had completed when the query acquired the index,
// and a query over a given document set returns the same result the
// batch Index would return for those documents. A single RWMutex guards
// the underlying Index — adds are brief (a handful of map appends), so
// writer hold times stay in the microseconds and readers batch their
// whole analysis under one read lock for a consistent view.
//
// Once the stream ends, Seal freezes the index and returns a plain
// *Index rebuilt in document-ID order, making the final index
// byte-for-byte independent of the arrival order the pipeline's worker
// scheduling happened to produce.
type StreamIndex struct {
	mu     sync.RWMutex
	ix     *Index
	ids    map[string]struct{}
	sealed bool
}

// NewStreamIndex returns an empty streaming index.
func NewStreamIndex() *StreamIndex {
	return &StreamIndex{ix: NewIndex(), ids: map[string]struct{}{}}
}

// Add indexes a document. Safe for concurrent use with queries and other
// Adds. It panics after Seal — a sealed index is a published snapshot,
// and silently growing it would invalidate results already reported —
// and on a duplicate document ID: with retrying pipelines upstream, a
// double Add means a stage emitted an item it had already delivered
// (a replay bug), and the ID-sorted Seal rebuild would silently stop
// being deterministic (equal keys have no stable order).
func (s *StreamIndex) Add(doc Document) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.add(doc, "Add")
}

// AddBatch indexes documents under one lock acquisition, amortizing
// contention when a pipeline stage delivers bursts.
func (s *StreamIndex) AddBatch(docs []Document) {
	if len(docs) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range docs {
		s.add(d, "AddBatch")
	}
}

// add enforces the stream invariants (not sealed, IDs unique) under the
// caller-held write lock.
func (s *StreamIndex) add(doc Document, op string) {
	if s.sealed {
		panic("mining: StreamIndex." + op + " after Seal")
	}
	if _, dup := s.ids[doc.ID]; dup {
		panicDuplicateID("StreamIndex."+op, doc.ID)
	}
	s.ids[doc.ID] = struct{}{}
	s.ix.Add(doc)
}

// Len returns the number of documents indexed so far.
func (s *StreamIndex) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ix.Len()
}

// Count returns how many indexed documents match the dimension.
func (s *StreamIndex) Count(d Dim) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ix.Count(d)
}

// CountBoth returns how many indexed documents match both dimensions.
func (s *StreamIndex) CountBoth(a, b Dim) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ix.CountBoth(a, b)
}

// Associate builds a two-dimensional association table over the
// documents indexed at call time (see Index.Associate).
func (s *StreamIndex) Associate(rows, cols []Dim, confidence float64) *AssocTable {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ix.Associate(rows, cols, confidence)
}

// RelativeFrequency runs the relevancy analysis over the documents
// indexed at call time (see Index.RelativeFrequency).
func (s *StreamIndex) RelativeFrequency(category string, featured Dim) []Relevance {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ix.RelativeFrequency(category, featured)
}

// Trend returns per-bucket counts for a dimension over the documents
// indexed at call time.
func (s *StreamIndex) Trend(d Dim) []TrendPoint {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ix.Trend(d)
}

// DrillDown returns the documents matching both dimensions, sorted by ID.
func (s *StreamIndex) DrillDown(a, b Dim) []Document {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ix.DrillDown(a, b)
}

// ConceptsInCategory returns the category's canonical forms by document
// frequency over the documents indexed at call time.
func (s *StreamIndex) ConceptsInCategory(category string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ix.ConceptsInCategory(category)
}

// FieldValues returns the distinct values of a structured field.
func (s *StreamIndex) FieldValues(field string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ix.FieldValues(field)
}

// Snapshot runs fn with a consistent read-only view of the current
// index. The *Index must not be retained or mutated past fn's return —
// writers resume as soon as fn exits.
func (s *StreamIndex) Snapshot(fn func(ix *Index)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fn(s.ix)
}

// Seal ends the stream: further Adds panic, and the returned *Index
// holds every document rebuilt in ID order (the package-level Seal), so
// the result is identical no matter how pipeline scheduling interleaved
// the Adds. Queries on the StreamIndex keep working against the sealed
// contents. Seal is idempotent.
func (s *StreamIndex) Seal() *Index {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return s.ix
	}
	s.sealed = true
	docs := make([]Document, 0, s.ix.Len())
	for i, n := 0, s.ix.Len(); i < n; i++ {
		docs = append(docs, s.ix.b.Doc(i))
	}
	s.ix = Seal(docs)
	return s.ix
}

// SealChecked is Seal plus the dead-letter accounting invariant: the
// sealed index must hold exactly `expected` documents — corpus size
// minus whatever the pipeline dead-lettered. A mismatch means items
// were lost (or double-counted) somewhere between source and sink, and
// callers should refuse to report over the index rather than publish
// silently incomplete numbers.
func (s *StreamIndex) SealChecked(expected int) (*Index, error) {
	ix := s.Seal()
	if ix.Len() != expected {
		return nil, fmt.Errorf("mining: sealed index holds %d documents, expected %d — streamed items lost or double-counted",
			ix.Len(), expected)
	}
	return ix, nil
}
