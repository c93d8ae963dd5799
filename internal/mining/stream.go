package mining

import (
	"fmt"
	"slices"
	"sync"
)

// StreamIndex is the incremental, concurrency-safe path into the mining
// layer: documents can be Added from many pipeline workers while
// association tables, relevancy reports, trends and drill-downs are
// queried concurrently — the Customer-Experience-Data-Mart requirement
// that reporting stays available while data keeps arriving.
//
// A StreamIndex holds the documents it was given, not an index. It is
// queried through Snapshot, which hands out a sealed view of exactly the
// documents whose Add had completed when it asked: the first Snapshot
// after an Add seals a copy of them (the package-level Seal), under the
// lock, and every query runs on that immutable *Index outside it until
// the next Add. A query therefore returns the same result a sealed Index
// over those documents would, whatever order they arrived in. Adds only
// append a document, so writers hold the lock for microseconds; a
// Snapshot after an Add costs one Seal of what has arrived, which a
// dashboard that asks every few hundred milliseconds pays once per tick.
//
// Once the stream ends, Seal seals the documents themselves, once, and
// returns that *Index.
type StreamIndex struct {
	mu     sync.Mutex
	docs   []Document
	ids    map[string]struct{}
	view   *Index // sealed over the first view.Len() documents; nil until asked
	sealed bool
}

// NewStreamIndex returns an empty streaming index.
func NewStreamIndex() *StreamIndex {
	return &StreamIndex{ids: map[string]struct{}{}}
}

// Add appends a document. Safe for concurrent use with queries and other
// Adds. It panics after Seal — a sealed index is a published snapshot,
// and silently growing it would invalidate results already reported —
// and on a duplicate document ID: with retrying pipelines upstream, a
// double Add means a stage emitted an item it had already delivered
// (a replay bug), and every count over the stream would be silently
// wrong.
func (s *StreamIndex) Add(doc Document) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.add(doc, "Add")
}

// AddBatch appends documents under one lock acquisition, amortizing
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
// caller-held lock.
func (s *StreamIndex) add(doc Document, op string) {
	if s.sealed {
		panic("mining: StreamIndex." + op + " after Seal")
	}
	if _, dup := s.ids[doc.ID]; dup {
		panicDuplicateID("StreamIndex."+op, doc.ID)
	}
	s.ids[doc.ID] = struct{}{}
	s.docs = append(s.docs, doc)
}

// current returns the sealed view over every document added so far,
// sealing a copy of them when documents arrived since the last view.
func (s *StreamIndex) current() *Index {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.view == nil || s.view.Len() != len(s.docs) {
		s.view = Seal(slices.Clone(s.docs))
	}
	return s.view
}

// Snapshot runs fn with the sealed view over the documents added so far,
// so that several queries answer over one document set. The view never
// changes: a later Add makes a new one, and fn may keep it.
func (s *StreamIndex) Snapshot(fn func(ix *Index)) { fn(s.current()) }

// Seal ends the stream: further Adds panic, and the returned *Index
// holds every document in ID order (the package-level Seal), so the
// result is identical no matter how pipeline scheduling interleaved the
// Adds. The documents are sealed themselves, once — a view a query made
// over all of them already is that index. Snapshot keeps handing out
// that index. Seal is idempotent.
func (s *StreamIndex) Seal() *Index {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.sealed {
		s.sealed = true
		if s.view == nil || s.view.Len() != len(s.docs) {
			s.view = Seal(s.docs)
		}
		s.ids = nil
	}
	return s.view
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
