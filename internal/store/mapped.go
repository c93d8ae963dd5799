package store

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"bivoc/internal/annotate"
	"bivoc/internal/mining"
)

// Mapped is the zero-copy read path over a sealed segment file: the
// file is memory-mapped (or read whole on platforms without mmap) and
// served through mining.Backing without materializing the index. Open
// cost is O(#postings lists), not O(corpus): the envelope is validated
// once (magic, version, geometry, CRC — the CRC pass touches every
// byte but allocates nothing and builds nothing), then only the
// fixed-width offset directory is walked to build the three key → list
// lookup tables. Postings stay varint-encoded in the mapping until a
// query first touches them; decoded lists land in a byte-budgeted LRU
// shared across a Store's segments, so the hot set is decoded once and
// cold lists never leave the page cache.
//
// Lazy reads are strictly bounds-checked. The CRC check at open makes
// post-open decode failures practically impossible for media damage,
// but a contract violation discovered lazily (a crafted file whose
// directory disagrees with its body — DecodeSegment would reject it
// outright) surfaces as a sticky error via Err and empty results,
// never a panic and never out-of-range positions: every decoded
// posting is validated against the document count before a query sees
// it, exactly as in the eager loader.
type Mapped struct {
	path  string
	id    uint64 // distinguishes this mapping's cache entries
	data  []byte
	unmap func([]byte) error
	cache *PostingsCache
	env   segEnvelope

	strOffs []byte // directory sections, aliasing data
	docOffs []byte

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
// IsCorrupt error so callers can fall back to the materializing
// LoadSegment for the definitive verdict.
func OpenMapped(path string, cache *PostingsCache) (*Mapped, error) {
	data, unmap, err := mmapFile(path)
	if err != nil {
		return nil, err
	}
	m, err := newMapped(path, data, unmap, cache)
	if err != nil {
		unmap(data)
		return nil, fmt.Errorf("store: segment %s: %w", path, err)
	}
	return m, nil
}

// newMapped validates the envelope and walks the directory. Splitting
// it from OpenMapped lets the fuzz harness drive raw bytes through the
// exact open path without a file.
func newMapped(path string, data []byte, unmap func([]byte) error, cache *PostingsCache) (*Mapped, error) {
	env, err := checkEnvelope(data)
	if err != nil {
		return nil, err
	}
	if cache == nil {
		cache = NewPostingsCache(0)
	}
	m := &Mapped{
		path:  path,
		id:    mappedIDs.Add(1),
		data:  data,
		unmap: unmap,
		cache: cache,
		env:   env,
	}
	off := env.dirStart
	m.strOffs = data[off : off+4*env.nStrs]
	off += 4 * env.nStrs
	m.docOffs = data[off : off+4*env.nDocs]
	off += 4 * env.nDocs
	concDir := data[off : off+dirEntryLen*env.nConc]
	off += dirEntryLen * env.nConc
	catDir := data[off : off+dirEntryLen*env.nCat]
	off += dirEntryLen * env.nCat
	fldDir := data[off : off+dirEntryLen*env.nFld]

	m.concept = make(map[[2]string]dirEntry, env.nConc)
	m.category = make(map[string]dirEntry, env.nCat)
	m.field = make(map[[2]string]dirEntry, env.nFld)
	for i := 0; i < env.nConc; i++ {
		k, e, err := m.dirEntryAt(concDir, i, true)
		if err != nil {
			return nil, err
		}
		if _, dup := m.concept[k]; dup {
			return nil, corruptf("directory repeats concept key %q/%q", k[0], k[1])
		}
		m.concept[k] = e
	}
	for i := 0; i < env.nCat; i++ {
		k, e, err := m.dirEntryAt(catDir, i, false)
		if err != nil {
			return nil, err
		}
		if _, dup := m.category[k[0]]; dup {
			return nil, corruptf("directory repeats category key %q", k[0])
		}
		m.category[k[0]] = e
	}
	for i := 0; i < env.nFld; i++ {
		k, e, err := m.dirEntryAt(fldDir, i, true)
		if err != nil {
			return nil, err
		}
		if _, dup := m.field[k]; dup {
			return nil, corruptf("directory repeats field key %q=%q", k[0], k[1])
		}
		m.field[k] = e
	}
	return m, nil
}

// dirEntryAt decodes the i-th fixed-width directory entry of one
// family section, resolving its key strings.
func (m *Mapped) dirEntryAt(section []byte, i int, twoKeys bool) ([2]string, dirEntry, error) {
	raw := section[i*dirEntryLen : (i+1)*dirEntryLen]
	var k [2]string
	var err error
	if k[0], err = m.strAt(binary.LittleEndian.Uint32(raw[0:4])); err != nil {
		return k, dirEntry{}, err
	}
	if twoKeys {
		if k[1], err = m.strAt(binary.LittleEndian.Uint32(raw[4:8])); err != nil {
			return k, dirEntry{}, err
		}
	}
	e := dirEntry{
		off: binary.LittleEndian.Uint32(raw[8:12]),
		df:  binary.LittleEndian.Uint32(raw[12:16]),
	}
	if int(e.df) > m.env.docCount {
		return k, dirEntry{}, corruptf("directory df %d exceeds %d documents", e.df, m.env.docCount)
	}
	return k, e, nil
}

// strAt resolves one string-table reference through the offset
// directory, bounds-checked against the body.
func (m *Mapped) strAt(ref uint32) (string, error) {
	if int(ref) >= m.env.nStrs {
		return "", corruptf("string ref %d out of table (size %d)", ref, m.env.nStrs)
	}
	off := binary.LittleEndian.Uint32(m.strOffs[4*ref:])
	r, err := m.bodyReader(off)
	if err != nil {
		return "", err
	}
	return r.str()
}

// bodyReader positions a bounds-checked reader at an absolute offset
// inside the body section.
func (m *Mapped) bodyReader(off uint32) (reader, error) {
	if int64(off) < segHeaderLen || int64(off) >= int64(m.env.bodyEnd) {
		return reader{}, corruptf("directory offset %d outside body [%d, %d)", off, segHeaderLen, m.env.bodyEnd)
	}
	return reader{buf: m.data[:m.env.bodyEnd], off: int(off)}, nil
}

// fail records the first lazy-decode contract violation; queries after
// it keep returning empty results rather than wrong ones.
func (m *Mapped) fail(err error) {
	boxed := fmt.Errorf("store: mapped segment %s: %w", m.path, err)
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
// cached copy.
func (m *Mapped) postings(e dirEntry) []int {
	if e.df == 0 {
		return nil
	}
	key := postKey{seg: m.id, off: e.off}
	if posts, ok := m.cache.get(key); ok {
		return posts
	}
	posts, err := m.decodeList(e)
	if err != nil {
		m.fail(err)
		return nil
	}
	return m.cache.put(key, posts)
}

// decodeList decodes one delta-encoded postings list at a directory
// entry, enforcing the same contract as the eager loader: the stored
// count must match the directory's df and positions must be strictly
// increasing inside [0, docCount).
func (m *Mapped) decodeList(e dirEntry) ([]int, error) {
	r, err := m.bodyReader(e.off)
	if err != nil {
		return nil, err
	}
	n, err := r.count("postings")
	if err != nil {
		return nil, err
	}
	if n != int(e.df) {
		return nil, corruptf("postings list has %d entries, directory says %d", n, e.df)
	}
	posts := make([]int, n)
	prev := -1
	for i := range posts {
		dv, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		delta, err := intFromU(dv, "postings delta")
		if err != nil {
			return nil, err
		}
		if delta == 0 {
			return nil, corruptf("zero postings delta (duplicate position %d)", prev)
		}
		p := prev + delta
		if p >= m.env.docCount {
			return nil, corruptf("postings position %d beyond %d documents", p, m.env.docCount)
		}
		posts[i] = p
		prev = p
	}
	return posts, nil
}

// docReader positions a reader at the i-th document record.
func (m *Mapped) docReader(i int) (reader, error) {
	if i < 0 || i >= m.env.nDocs {
		return reader{}, corruptf("document index %d out of range (%d documents)", i, m.env.nDocs)
	}
	return m.bodyReader(binary.LittleEndian.Uint32(m.docOffs[4*i:]))
}

// DocCount implements mining.Backing.
func (m *Mapped) DocCount() int { return m.env.docCount }

// Doc implements mining.Backing: the i-th document decoded out of the
// mapping, a full record decode every time — results are not cached.
// Counts, tables and trends never call it; a drill-down does, on its
// miss path, which is why it decodes only the documents it returns
// (mining.DrillDownLimit); a compaction's re-encode decodes them all.
func (m *Mapped) Doc(i int) mining.Document {
	r, err := m.docReader(i)
	if err != nil {
		m.fail(err)
		return mining.Document{}
	}
	d, err := m.decodeDoc(&r)
	if err != nil {
		m.fail(err)
		return mining.Document{}
	}
	return d
}

// DocID implements mining.Backing: one string-ref read instead of a
// full record decode.
func (m *Mapped) DocID(i int) string {
	r, err := m.docReader(i)
	if err != nil {
		m.fail(err)
		return ""
	}
	idRef, err := r.uvarint()
	if err != nil {
		m.fail(err)
		return ""
	}
	id, err := m.strAt(uint32(idRef))
	if err != nil {
		m.fail(err)
		return ""
	}
	return id
}

// DocTime implements mining.Backing: skips the id ref and reads the
// time varint — two varint reads per matching document on Trend.
func (m *Mapped) DocTime(i int) int {
	r, err := m.docReader(i)
	if err != nil {
		m.fail(err)
		return 0
	}
	if _, err := r.uvarint(); err != nil { // id ref
		m.fail(err)
		return 0
	}
	tm, err := r.varint()
	if err != nil {
		m.fail(err)
		return 0
	}
	return int(tm)
}

// decodeDoc decodes one document record, mirroring DecodeSegment's
// per-document loop with directory-resolved strings.
func (m *Mapped) decodeDoc(r *reader) (mining.Document, error) {
	var d mining.Document
	str := func(what string) (string, error) {
		ref, err := r.uvarint()
		if err != nil {
			return "", err
		}
		if ref > 1<<32-1 {
			return "", corruptf("%s string ref %d out of table (size %d)", what, ref, m.env.nStrs)
		}
		return m.strAt(uint32(ref))
	}
	var err error
	if d.ID, err = str("doc id"); err != nil {
		return d, err
	}
	tm, err := r.varint()
	if err != nil {
		return d, err
	}
	d.Time = int(tm)
	nc, err := r.count("concept")
	if err != nil {
		return d, err
	}
	if nc > 0 {
		d.Concepts = make([]annotate.Concept, nc)
		for j := range d.Concepts {
			c := &d.Concepts[j]
			if c.Category, err = str("concept category"); err != nil {
				return d, err
			}
			if c.Canonical, err = str("concept canonical"); err != nil {
				return d, err
			}
			start, err := r.varint()
			if err != nil {
				return d, err
			}
			end, err := r.varint()
			if err != nil {
				return d, err
			}
			c.Start, c.End = int(start), int(end)
		}
	}
	nf, err := r.count("field")
	if err != nil {
		return d, err
	}
	if nf > 0 {
		d.Fields = make(map[string]string, nf)
		for j := 0; j < nf; j++ {
			k, err := str("field name")
			if err != nil {
				return d, err
			}
			v, err := str("field value")
			if err != nil {
				return d, err
			}
			if _, dup := d.Fields[k]; dup {
				return d, corruptf("document %q repeats field %q", d.ID, k)
			}
			d.Fields[k] = v
		}
	}
	return d, nil
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
