package server

import (
	"bytes"
	"encoding/json"
	"slices"

	"bivoc/internal/mining"
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

// ShardDoc is one drill-down document inside a partial: the ID the
// coordinator orders by, and the exact bytes DocumentJSON marshals to.
type ShardDoc struct {
	ID   string
	JSON []byte
}

// AppendDrillDownPartial appends a drill-down query's partial: uvarint
// cell size, uvarint n, then n of (ID, encoded document) — the cell's
// first documents in ID order, at most the query's limit.
func AppendDrillDownPartial(b []byte, count int, docs []ShardDoc) []byte {
	return wire.AppendList(wire.AppendInt(b, count), docs, func(b []byte, d ShardDoc) []byte {
		return wire.AppendBytes(wire.AppendBytes(b, d.ID), d.JSON)
	})
}

// appendDocumentsPartial encodes docs, each exactly as a DrillDownResponse
// would carry it, with one encoder over a pooled buffer, and appends the
// drill-down partial of them.
func appendDocumentsPartial(b []byte, count int, docs []mining.Document) ([]byte, error) {
	buf := bodyScratch.Get().(*bytes.Buffer)
	defer bodyScratch.Put(buf)
	buf.Reset()
	enc := json.NewEncoder(buf)
	ends := make([]int, len(docs))
	for i, d := range documentsJSON(docs) {
		if err := enc.Encode(d); err != nil {
			return nil, err
		}
		ends[i] = buf.Len()
	}
	encoded, start := make([]ShardDoc, len(docs)), 0
	for i, d := range docs {
		encoded[i] = ShardDoc{ID: d.ID, JSON: buf.Bytes()[start : ends[i]-1]} // less Encode's newline
		start = ends[i]
	}
	return AppendDrillDownPartial(slices.Grow(b, buf.Len()+32*(len(docs)+1)), count, encoded), nil
}

// drillDownPartial is a drill-down partial as read: the documents alias
// the reply they were read from.
type drillDownPartial struct {
	count int
	docs  []shardDoc
}

type shardDoc struct {
	from     int // index of the live shard that sent it
	id, json []byte
}

// readDrillDownPartial reads a drill-down partial for a query with the
// given limit; a shard may not send more documents than the limit, or
// than its own cell holds.
func readDrillDownPartial(limit int) func(*wire.Reader) drillDownPartial {
	return func(r *wire.Reader) drillDownPartial {
		p := drillDownPartial{count: r.Int(), docs: wire.List(r, 2, func(r *wire.Reader) shardDoc {
			return shardDoc{id: r.Bytes(), json: r.Bytes()}
		})}
		if len(p.docs) > min(p.count, limit) {
			r.Failf("%d documents for a cell of %d at limit %d", len(p.docs), p.count, limit)
		}
		return p
	}
}

// mergeDrillDownPartials sums the cell sizes and returns the cell's first
// limit documents in ID order, as the shards encoded them. Only the
// documents kept are checked to be JSON; they are the only ones forwarded.
func mergeDrillDownPartials(live []ShardBody, limit int) (count int, docs []shardDoc, err error) {
	parts, err := decodeParts(live, readDrillDownPartial(limit))
	if err != nil {
		return 0, nil, err
	}
	n := 0
	for _, part := range parts {
		n += len(part.docs)
	}
	docs = make([]shardDoc, 0, n)
	for k, part := range parts {
		count += part.count
		for _, d := range part.docs {
			d.from = k
			docs = append(docs, d)
		}
	}
	slices.SortFunc(docs, func(a, b shardDoc) int { return bytes.Compare(a.id, b.id) })
	docs = docs[:min(len(docs), limit)]
	for _, d := range docs {
		if !json.Valid(d.json) {
			return 0, nil, live[d.from].errorf("document %q is not valid JSON", d.id)
		}
	}
	return count, docs, nil
}
