// Package store is the persistence subsystem of BIVoC: a versioned
// binary segment format for sealed mining indexes plus an append-only
// ingest write-ahead log, giving bivocd warm restarts (load the latest
// durable segment, replay the WAL tail) instead of re-paying the full
// O(corpus) pipeline rebuild on every launch.
//
// Layout of a data directory:
//
//	seg-<generation>.seg   immutable sealed-index segments (newest wins)
//	wal.log                append-only log of documents ingested since
//	                       the last segment was written
//	*.tmp                  in-flight atomic writes; orphans from crashes
//	                       are removed on Open
//
// Durability protocol: every ingested document is appended to the WAL
// (fsynced on a configurable cadence); when the ingest stream seals,
// the whole sealed index is written as a new segment — temp file,
// fsync, rename, directory fsync — and only then is the WAL reset. A
// crash at any point recovers to segment ∪ WAL-tail, deduplicated by
// document ID, so the worst case after a torn fsync window is a few
// re-ingested documents, never corruption and never silent loss of
// acknowledged-durable data.
package store

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"bivoc/internal/annotate"
	"bivoc/internal/mining"
	"bivoc/internal/wire"
)

// errCorrupt is wrapped by every decoder error so callers can
// distinguish "this file is damaged" from I/O errors.
var errCorrupt = errors.New("store: corrupt data")

// corruptf builds a decoder error wrapping errCorrupt.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCorrupt, fmt.Sprintf(format, args...))
}

// corrupt is a wire.Reader's verdict as the store reports it: nil, or
// the first failure wrapping errCorrupt.
func corrupt(err error) error {
	if err == nil {
		return nil
	}
	return corruptf("%v", err)
}

// IsCorrupt reports whether err marks damaged on-disk data (as opposed
// to an I/O failure reaching it).
func IsCorrupt(err error) bool { return errors.Is(err, errCorrupt) }

// The document record, as segments and the WAL both hold it: id · time
// signed · concepts (count, then category · canonical · start signed ·
// end signed) · fields (count, key-sorted, then name · value). What a
// string is belongs to the container — inline bytes in the WAL, a
// reference into the string table in a segment — so the record's one
// writer and one reader take it as a parameter. The inline form is
// exported: a /v1/shard drill-down partial carries its documents in it.

// AppendDocument appends d's record with inline strings, the WAL's form.
func AppendDocument(b []byte, d mining.Document) []byte {
	return appendDocument(b, d, wire.AppendBytes[string])
}

// ReadDocument reads one record with inline strings; a failure is r's.
func ReadDocument(r *wire.Reader) mining.Document { return readDocument(r, r.String) }

// appendDocument appends d's record, writing every string with str.
func appendDocument(b []byte, d mining.Document, str func([]byte, string) []byte) []byte {
	b = wire.AppendSigned(str(b, d.ID), d.Time)
	b = wire.AppendInt(b, len(d.Concepts))
	for _, c := range d.Concepts {
		b = wire.AppendSigned(wire.AppendSigned(str(str(b, c.Category), c.Canonical), c.Start), c.End)
	}
	var few [8]string // the keys of a document's few fields, off the heap
	keys := few[:0]
	for k := range d.Fields {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = wire.AppendInt(b, len(keys))
	for _, k := range keys {
		b = str(str(b, k), d.Fields[k])
	}
	return b
}

// readDocument reads one record, every string with str (which fails r
// when a reference does not resolve). A document without concepts or
// without fields decodes to a nil slice or map. A repeated field name
// is a failure.
func readDocument(r *wire.Reader, str func() string) mining.Document {
	d := mining.Document{ID: str(), Time: r.Signed()}
	if n := r.Count(1); n > 0 {
		d.Concepts = make([]annotate.Concept, n)
		for i := range d.Concepts {
			d.Concepts[i] = annotate.Concept{Category: str(), Canonical: str(), Start: r.Signed(), End: r.Signed()}
		}
	}
	if n := r.Count(1); n > 0 {
		d.Fields = make(map[string]string, n)
		for range n {
			k, v := str(), str()
			if _, dup := d.Fields[k]; dup {
				r.Failf("document %q repeats field %q", d.ID, k)
			}
			d.Fields[k] = v
		}
	}
	return d
}

// appendPostings appends one sorted postings list: its length, then each
// position as the delta from the one before (the first from -1), so that
// sorted lists of nearby document positions encode in about a byte an
// entry.
func appendPostings(b []byte, posts []int) []byte {
	b = wire.AppendInt(b, len(posts))
	prev := -1
	for _, p := range posts {
		b = wire.AppendInt(b, p-prev)
		prev = p
	}
	return b
}

// readPostings reads one delta-encoded list of strictly increasing
// positions inside [0, nDocs), of the length want its directory entry
// promised. Deltas are held to 1..MaxInt32, which keeps prev+delta from
// wrapping on any platform.
func readPostings(r *wire.Reader, want, nDocs int) []int {
	n := r.Count(1)
	if n != want && r.Err() == nil {
		r.Failf("postings list has %d entries, directory says %d", n, want)
	}
	if n == 0 || r.Err() != nil {
		return nil
	}
	posts := make([]int, n)
	prev := -1
	for i := range posts {
		delta := r.Int()
		if delta == 0 || delta > math.MaxInt32 {
			r.Failf("postings delta %d after position %d", delta, prev)
			return nil
		}
		p := prev + delta
		if p >= nDocs {
			r.Failf("postings position %d beyond %d documents", p, nDocs)
			return nil
		}
		posts[i] = p
		prev = p
	}
	return posts
}
