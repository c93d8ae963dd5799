package store

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"bivoc/internal/mining"
	"bivoc/internal/wire"
)

// Mapped is the segment reader, the only code that parses segment bytes:
// the file is memory-mapped (or read whole on platforms without mmap) and
// served through mining.Backing without materializing the index. Open
// cost is O(#postings lists), not O(corpus): the envelope is validated
// once (magic, version, geometry, CRC — the CRC pass touches every
// byte but allocates nothing and builds nothing), then only the
// fixed-width offset directory is walked to build the three key → list
// lookup tables. Postings stay varint-encoded in the mapping until a
// query first touches them; decoded lists land in a byte-budgeted LRU
// shared across a Store's segments, so the hot set is decoded once and
// cold lists never leave the page cache. A store that does not map its
// segments opens each through it too, and materializes it.
//
// Lazy reads are strictly bounds-checked. The CRC check at open makes
// post-open decode failures practically impossible for media damage,
// but a contract violation discovered lazily (a crafted file whose
// checksum holds over a record or list that does not decode) surfaces
// as a sticky error via Err and empty results, never a panic and never
// out-of-range positions: every decoded posting is validated against
// the document count before a query sees it. The materializing open
// reads every record and list, so it fails on such a file instead.
type Mapped struct {
	path  string
	id    uint64 // distinguishes this mapping's cache entries
	data  []byte
	unmap func([]byte) error
	cache *PostingsCache
	env   segEnvelope

	body    []byte // the records between header and directory, aliasing data
	strOffs []byte // directory sections, aliasing data: u32 tables that
	docOffs []byte // are indexed, not streamed (one lookup per read)
	// strs is the string table resolved once, which strAt reads when it
	// is set: a materializing open shares each string among the records
	// that name it instead of decoding it per reference.
	strs []string

	concept  map[[2]string]dirEntry
	category map[string]dirEntry
	field    map[[2]string]dirEntry

	failure atomic.Pointer[error]
}

// dirEntry locates one postings list inside the mapping.
type dirEntry struct {
	off uint32 // absolute file offset of the list's count prefix
	df  uint32 // list length (document frequency)
}

var mappedIDs atomic.Uint64

// Mapped satisfies the mining storage interface directly.
var _ mining.Backing = (*Mapped)(nil)

// OpenMapped maps a segment file and builds its offset-directory
// lookup tables. cache may be shared across segments (nil gets a
// private default-budget cache). Any validation failure returns an
// IsCorrupt error; any other error is the file not opening or not mapping.
func OpenMapped(path string, cache *PostingsCache) (*Mapped, error) {
	data, unmap, err := mmapFile(path)
	if err != nil {
		return nil, err
	}
	if cache == nil {
		cache = NewPostingsCache(0)
	}
	m, err := newMapped(path, data, unmap, cache)
	if err != nil {
		unmap(data)
		return nil, fmt.Errorf("store: segment %s: %w", path, err)
	}
	return m, nil
}

// newMapped validates the envelope and walks the directory; it is the
// open path of both loaders, and the fuzz harness drives raw bytes
// through it without a file. A nil cache is a materializing open's,
// which reads every list exactly once: it decodes straight out of data
// without caching, and resolves the string table before the directory so
// that keys and records share its strings.
func newMapped(path string, data []byte, unmap func([]byte) error, cache *PostingsCache) (*Mapped, error) {
	env, err := checkEnvelope(data)
	if err != nil {
		return nil, err
	}
	m := &Mapped{
		path:  path,
		id:    mappedIDs.Add(1),
		data:  data,
		unmap: unmap,
		cache: cache,
		env:   env,
	}
	docOffs := env.dirStart + 4*env.nStrs
	lists := docOffs + 4*env.nDocs
	m.body, m.strOffs, m.docOffs = data[segHeaderLen:env.bodyEnd], data[env.dirStart:docOffs], data[docOffs:lists]
	dir := wire.ReaderAt(data[:lists+dirEntryLen*(env.nConc+env.nCat+env.nFld)], lists)
	if cache == nil {
		strs := make([]string, env.nStrs)
		for i := range strs {
			strs[i] = m.strAt(&dir, uint64(i))
		}
		m.strs = strs
	}

	m.concept = make(map[[2]string]dirEntry, env.nConc)
	m.category = make(map[string]dirEntry, env.nCat)
	m.field = make(map[[2]string]dirEntry, env.nFld)
	for range env.nConc {
		k, e := m.dirEntry(&dir, 2)
		if _, dup := m.concept[k]; dup {
			dir.Failf("directory repeats concept key %q/%q", k[0], k[1])
		}
		m.concept[k] = e
	}
	for range env.nCat {
		k, e := m.dirEntry(&dir, 1)
		if _, dup := m.category[k[0]]; dup {
			dir.Failf("directory repeats category key %q", k[0])
		}
		m.category[k[0]] = e
	}
	for range env.nFld {
		k, e := m.dirEntry(&dir, 2)
		if _, dup := m.field[k]; dup {
			dir.Failf("directory repeats field key %q=%q", k[0], k[1])
		}
		m.field[k] = e
	}
	if err := dir.Done(); err != nil {
		return nil, corrupt(err)
	}
	return m, nil
}

// dirEntry reads the next fixed-width directory entry, resolving the
// one or two strings of its key.
func (m *Mapped) dirEntry(dir *wire.Reader, parts int) (k [2]string, e dirEntry) {
	refs := [2]uint32{dir.U32(), dir.U32()}
	for i := range parts {
		k[i] = m.strAt(dir, uint64(refs[i]))
	}
	e = dirEntry{off: dir.U32(), df: dir.U32()}
	if int(e.df) > m.env.docCount {
		dir.Failf("directory df %d exceeds %d documents", e.df, m.env.docCount)
	}
	return k, e
}

// strAt resolves one string-table reference through the offset
// directory, bounds-checked against the body; a reference that does not
// resolve fails r, the reader it was read from.
func (m *Mapped) strAt(r *wire.Reader, ref uint64) string {
	if r.Err() != nil {
		return ""
	}
	if ref >= uint64(m.env.nStrs) {
		r.Failf("string ref %d out of table (size %d)", ref, m.env.nStrs)
		return ""
	}
	if m.strs != nil {
		return m.strs[ref]
	}
	at := m.bodyReader(binary.LittleEndian.Uint32(m.strOffs[4*ref:]))
	s := at.String()
	if err := at.Err(); err != nil {
		r.Failf("string %d: %v", ref, err)
	}
	return s
}

// bodyReader positions a reader at an absolute file offset, which must
// lie inside the body section (past the header, before the directory);
// one outside it is the reader's first failure.
func (m *Mapped) bodyReader(off uint32) wire.Reader {
	return wire.ReaderAt(m.body, int(off)-segHeaderLen)
}

// fail records the first lazy-decode contract violation; queries after
// it keep returning empty results rather than wrong ones.
func (m *Mapped) fail(err error) {
	boxed := fmt.Errorf("store: mapped segment %s: %w", m.path, corrupt(err))
	m.failure.CompareAndSwap(nil, &boxed)
}

// Err returns the sticky lazy-decode error, nil while the mapping has
// served every read cleanly.
func (m *Mapped) Err() error {
	if p := m.failure.Load(); p != nil {
		return *p
	}
	return nil
}

// Bytes returns the size of the mapping.
func (m *Mapped) Bytes() int64 { return int64(len(m.data)) }

// Close releases the mapping. The caller must guarantee no query can
// still reach it — the serving layer keeps mappings alive until the
// whole store closes, because in-flight queries may hold snapshots of
// superseded segments.
func (m *Mapped) Close() error {
	if m.data == nil {
		return nil
	}
	data := m.data
	m.data = nil
	return m.unmap(data)
}

// postings returns one decoded list, consulting the shared cache
// first. A miss decodes the exact-length list out of the mapping and
// publishes it; concurrent misses on the same list converge on one
// cached copy. Without a cache every call decodes.
func (m *Mapped) postings(e dirEntry) []int {
	if e.df == 0 {
		return nil
	}
	key := postKey{seg: m.id, off: e.off}
	if m.cache != nil {
		if posts, ok := m.cache.get(key); ok {
			return posts
		}
	}
	r := m.bodyReader(e.off)
	posts := readPostings(&r, int(e.df), m.env.docCount)
	if m.failed(&r) {
		return nil
	}
	if m.cache == nil {
		return posts
	}
	return m.cache.put(key, posts)
}

// docReader positions a reader at the i-th document record; an i that is
// no document's gets a failed reader.
func (m *Mapped) docReader(i int) wire.Reader {
	off := uint32(0) // outside the body
	if uint(i) < uint(m.env.nDocs) {
		off = binary.LittleEndian.Uint32(m.docOffs[4*i:])
	}
	return m.bodyReader(off)
}

// failed reports whether a lazy read went wrong, recording the failure.
func (m *Mapped) failed(r *wire.Reader) bool {
	if r.Err() == nil {
		return false
	}
	m.fail(r.Err())
	return true
}

// DocCount implements mining.Backing.
func (m *Mapped) DocCount() int { return m.env.docCount }

// Doc implements mining.Backing: the i-th document decoded out of the
// mapping, a full record decode every time — results are not cached.
// Counts, tables and trends never call it; a drill-down does, on its
// miss path, which is why it decodes only the documents it returns
// (mining.DrillDownLimit); a compaction's re-encode decodes them all.
func (m *Mapped) Doc(i int) mining.Document {
	r := m.docReader(i)
	d := readDocument(&r, func() string { return m.strAt(&r, r.Uvarint()) })
	if m.failed(&r) {
		return mining.Document{}
	}
	return d
}

// DocID implements mining.Backing: one string-ref read instead of a
// full record decode.
func (m *Mapped) DocID(i int) string {
	r := m.docReader(i)
	id := m.strAt(&r, r.Uvarint())
	if m.failed(&r) {
		return ""
	}
	return id
}

// DocTime implements mining.Backing: skips the id ref and reads the
// time varint — two varint reads per matching document on Trend.
func (m *Mapped) DocTime(i int) int {
	r := m.docReader(i)
	r.Uvarint() // id ref
	tm := r.Signed()
	m.failed(&r)
	return tm
}

// ConceptPostings implements mining.Backing.
func (m *Mapped) ConceptPostings(category, canonical string) []int {
	e, ok := m.concept[[2]string{category, canonical}]
	if !ok {
		return nil
	}
	return m.postings(e)
}

// CategoryPostings implements mining.Backing.
func (m *Mapped) CategoryPostings(category string) []int {
	e, ok := m.category[category]
	if !ok {
		return nil
	}
	return m.postings(e)
}

// FieldPostings implements mining.Backing.
func (m *Mapped) FieldPostings(field, value string) []int {
	e, ok := m.field[[2]string{field, value}]
	if !ok {
		return nil
	}
	return m.postings(e)
}

// EachConcept implements mining.Backing. The df comes straight from
// the directory — no postings are decoded.
func (m *Mapped) EachConcept(fn func(category, canonical string, df int)) {
	for k, e := range m.concept {
		fn(k[0], k[1], int(e.df))
	}
}

// EachCategory implements mining.Backing.
func (m *Mapped) EachCategory(fn func(category string, df int)) {
	for cat, e := range m.category {
		fn(cat, int(e.df))
	}
}

// EachField implements mining.Backing.
func (m *Mapped) EachField(fn func(field, value string, df int)) {
	for k, e := range m.field {
		fn(k[0], k[1], int(e.df))
	}
}
