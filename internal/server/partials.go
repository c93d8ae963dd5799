package server

import (
	"bytes"

	"bivoc/internal/mining"
	"bivoc/internal/store"
	"bivoc/internal/wire"
)

// Partials — the share of a query's answer one daemon holds, as the
// sub-results of a /v1/shard frame carry it: exactly what the
// mining.Querier calls SegmentSet merges by return, written as
// internal/wire's varints and length-prefixed strings in field order. A partial has no head of
// its own (the generation and sealed flag are the frame's) and no floats:
// ratios, Wilson intervals and slopes are computed once, by whoever holds
// the sums. Each shape's writer and reader sit side by side here; the
// endpoint table picks the pair a query uses. Counts are non-negative and
// travel as uvarints; lists announce their length first, and a reader
// checks it against the bytes that remain before allocating.
//
// The writers that are exported are the ones tests outside this package
// build fake shards from.

// countPartial: uvarint total, then one count per dimension.
type countPartial struct {
	total  int
	counts []int
}

// AppendCountPartial appends a count query's partial.
func AppendCountPartial(b []byte, total int, counts []int) []byte {
	return wire.AppendInts(wire.AppendInt(b, total), counts)
}

func readCountPartial(r *wire.Reader) countPartial {
	return countPartial{total: r.Int(), counts: r.Ints()}
}

// Trend points: uvarint n, then n of (zigzag time, uvarint count).
func appendTrendPartial(b []byte, pts []mining.TrendPoint) []byte {
	return wire.AppendList(b, pts, func(b []byte, p mining.TrendPoint) []byte {
		return wire.AppendInt(wire.AppendSigned(b, p.Time), p.Count)
	})
}

func readTrendPartial(r *wire.Reader) []mining.TrendPoint {
	return wire.List(r, 2, func(r *wire.Reader) mining.TrendPoint {
		return mining.TrendPoint{Time: r.Signed(), Count: r.Int()}
	})
}

// A category's vocabulary: uvarint n, then n of (concept, uvarint df).
func appendConceptDFPartial(b []byte, concepts []mining.ConceptCount) []byte {
	return wire.AppendList(b, concepts, func(b []byte, c mining.ConceptCount) []byte {
		return wire.AppendInt(wire.AppendBytes(b, c.Concept), c.DF)
	})
}

func readConceptDFPartial(r *wire.Reader) []mining.ConceptCount {
	return wire.List(r, 2, func(r *wire.Reader) mining.ConceptCount {
		return mining.ConceptCount{Concept: r.String(), DF: r.Int()}
	})
}

// A field's values: uvarint n, then n strings.
func appendStringsPartial(b []byte, values []string) []byte {
	return wire.AppendList(b, values, wire.AppendBytes[string])
}

func readStringsPartial(r *wire.Reader) []string {
	return wire.List(r, 1, (*wire.Reader).String)
}

// Relative-frequency marginals: uvarint N, uvarint subset size, uvarint
// n, then n of (concept, uvarint in-subset, uvarint in-all).
func appendRelFreqPartial(b []byte, m mining.RelFreqMarginals) []byte {
	return wire.AppendList(wire.AppendInt(wire.AppendInt(b, m.N), m.SubsetSize), m.Concepts, func(b []byte, c mining.ConceptMarginal) []byte {
		return wire.AppendInt(wire.AppendInt(wire.AppendBytes(b, c.Concept), c.InSubset), c.InAll)
	})
}

func readRelFreqPartial(r *wire.Reader) mining.RelFreqMarginals {
	return mining.RelFreqMarginals{N: r.Int(), SubsetSize: r.Int(),
		Concepts: wire.List(r, 3, func(r *wire.Reader) mining.ConceptMarginal {
			return mining.ConceptMarginal{Concept: r.String(), InSubset: r.Int(), InAll: r.Int()}
		})}
}

// AppendAssocPartial appends an association query's partial: uvarint N,
// the row counts and the column counts as lists, then uvarint rows and
// each row of cells as a list — every list with its own length, so that
// the reader can hand AssocMarginals.Fits whatever shape was sent.
func AppendAssocPartial(b []byte, m mining.AssocMarginals) []byte {
	return wire.AppendList(wire.AppendInts(wire.AppendInts(wire.AppendInt(b, m.N), m.Nver), m.Nhor), m.Ncell, wire.AppendInts)
}

func readAssocPartial(r *wire.Reader) mining.AssocMarginals {
	return mining.AssocMarginals{N: r.Int(), Nver: r.Ints(), Nhor: r.Ints(),
		Ncell: wire.List(r, 1, (*wire.Reader).Ints)}
}

// AppendDrillDownPartial appends a drill-down query's partial: uvarint
// cell size, uvarint n, then n records — the cell's first documents in
// ID order, at most the query's limit, each the store's document record
// with inline strings (store.AppendDocument) as a byte string. A record
// begins with its document's ID, so the coordinator orders the documents
// by reading that string alone.
func AppendDrillDownPartial(b []byte, count int, docs []mining.Document) []byte {
	b = wire.AppendInt(wire.AppendInt(b, count), len(docs))
	var record []byte
	for _, d := range docs {
		record = store.AppendDocument(record[:0], d)
		b = wire.AppendBytes(b, record)
	}
	return b
}

// drillDownPartial is a drill-down partial as read: the IDs and records
// alias the reply they were read from.
type drillDownPartial struct {
	count int
	docs  []shardDoc
}

// shardDoc is one record of a drill-down partial and the ID it begins
// with, read without decoding the rest.
type shardDoc struct{ id, record []byte }

// readDrillDownPartial reads a drill-down partial for a query with the
// given limit. A shard may not send more documents than the limit, or
// than its own cell holds, and sends them in strictly increasing ID order.
func readDrillDownPartial(limit int) func(*wire.Reader) drillDownPartial {
	return func(r *wire.Reader) drillDownPartial {
		p := drillDownPartial{count: r.Int(), docs: wire.List(r, 1, func(r *wire.Reader) shardDoc {
			record := r.Bytes()
			rr := wire.NewReader(record)
			id := rr.Bytes()
			if err := rr.Err(); err != nil {
				r.Failf("record without an ID: %v", err)
			}
			return shardDoc{id: id, record: record}
		})}
		if len(p.docs) > min(p.count, limit) {
			r.Failf("%d documents for a cell of %d at limit %d", len(p.docs), p.count, limit)
		}
		for i := 1; i < len(p.docs) && r.Err() == nil; i++ {
			if bytes.Compare(p.docs[i-1].id, p.docs[i].id) >= 0 {
				r.Failf("document %q after %q: IDs not in strictly increasing order", p.docs[i].id, p.docs[i-1].id)
			}
		}
		return p
	}
}

// cellDocs is a drill-down's share: the cell's size and its first limit
// documents in ID order.
type cellDocs struct {
	count int
	docs  []mining.Document
}

// mergeDrillDownPartials sums the cell sizes and keeps the cell's first
// limit documents in ID order. Document IDs are unique across shards, so
// those are among the shards' own first limit: merging the shards' sorted
// lists finds them, and only their records are decoded. Each must decode
// whole.
func mergeDrillDownPartials(live []ShardBody, limit int) (cellDocs, error) {
	parts, err := decodeParts(live, readDrillDownPartial(limit))
	if err != nil {
		return cellDocs{}, err
	}
	count, n := 0, 0
	for _, part := range parts {
		count += part.count
		n += len(part.docs)
	}
	docs := make([]mining.Document, 0, min(n, limit))
	next := make([]int, len(parts)) // each part's first document not yet taken
	for len(docs) < cap(docs) {
		k := -1
		for j, part := range parts {
			if next[j] < len(part.docs) && (k < 0 || bytes.Compare(part.docs[next[j]].id, parts[k].docs[next[k]].id) < 0) {
				k = j
			}
		}
		sent := parts[k].docs[next[k]]
		next[k]++
		r := wire.NewReader(sent.record)
		d := store.ReadDocument(&r)
		if err := r.Done(); err != nil {
			return cellDocs{}, live[k].errorf("document %q: decoding record: %w", sent.id, err)
		}
		docs = append(docs, d)
	}
	return cellDocs{count: count, docs: docs}, nil
}
