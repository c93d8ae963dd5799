package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"sort"

	"bivoc/internal/annotate"
	"bivoc/internal/mining"
)

// Segment format, version 2. A segment is the complete serialization of
// one sealed mining.Index — documents plus all three inverted-list
// families — laid out so the natural shape of the in-memory index (PR
// 5's born-sorted postings) becomes the natural shape on disk:
//
//	header   magic "BVSG" | version uint32 LE
//	body     string table   uvarint count, then len-prefixed strings
//	                        (sorted unique; every doc ID, concept
//	                        category/canonical, field name/value is a
//	                        uvarint reference into it)
//	         documents      uvarint count, then per document:
//	                        id ref · time varint · concepts (count,
//	                        then cat ref · canon ref · start · end) ·
//	                        fields (count, key-sorted, then key ref ·
//	                        value ref)
//	         postings ×3    concept {cat, canon} / category {cat} /
//	                        field {name, value} lists, key-sorted; each
//	                        list is a uvarint length followed by varint
//	                        deltas from the previous position (first
//	                        delta from -1), so sorted lists of nearby
//	                        document positions encode in ~1 byte/entry
//	dir      fixed-width offset directory over the body, all uint32 LE:
//	         per-string offsets, per-document offsets, then one 16-byte
//	         entry {key ref · key ref · list offset · doc frequency}
//	         per postings list in each family (category entries carry 0
//	         in the second ref). Offsets are absolute file offsets of
//	         the body records. The directory lets a mapped reader
//	         (OpenMapped) locate any string, document, or postings list
//	         directly instead of decoding the whole varint stream — the
//	         body is only touched lazily, list by list.
//	trailer  fixed 24 bytes, six uint32 LE: directory start offset ·
//	         string count · doc count · concept, category, field
//	         postings-list counts
//	footer   fixed 24 bytes: length of everything between header and
//	         footer uint64 LE · document count uint64 LE · version
//	         uint32 LE · CRC-32 (IEEE, over header through trailer)
//	         uint32 LE
//
// The footer is written last and read first: a reader validates magic,
// version, length, and checksum before decoding a single body byte, so
// truncated, bit-flipped, or foreign files are rejected up front.
// DecodeSegment additionally bounds-checks every count and reference,
// rebuilds the offset directory from the body and requires it to match
// the stored one byte-for-byte (so the eager and mapped readers can
// never disagree about an accepted file), and mining.FromSnapshot
// re-validates the postings contract — a segment either loads into an
// index byte-identical to the one written, or it errors; it never
// panics and never silently loads wrong data.
//
// Version 2 is the only version read or written: a file of any other
// version (version 1 had no directory and trailer; nothing has written
// it since the directory arrived) is rejected as corrupt by both
// readers, and recovery skips it like any other damaged generation.

var segMagic = [4]byte{'B', 'V', 'S', 'G'}

const (
	// SegmentVersion is the on-disk format version; a file of any other
	// version is rejected rather than guessed at.
	SegmentVersion = 2

	segHeaderLen  = 8  // magic + version
	segFooterLen  = 24 // bodyLen + docCount + version + crc32
	dirTrailerLen = 24 // dirStart + nStrs + nDocs + nConc + nCat + nField
	dirEntryLen   = 16 // keyRef0 + keyRef1 + listOff + df
)

// EncodeSegment serializes an index snapshot into segment bytes.
// Encoding is deterministic: the same snapshot always yields the same
// bytes (the string table is sorted, snapshot entries are key-sorted by
// mining.Export, and document fields are emitted key-sorted).
func EncodeSegment(snap *mining.IndexSnapshot) []byte {
	strs, ref := buildStringTable(snap)

	w := &writer{buf: make([]byte, 0, 1<<16)}
	w.buf = append(w.buf, segMagic[:]...)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, SegmentVersion)

	w.uvarint(uint64(len(strs)))
	strOffs := make([]uint32, len(strs))
	for i, s := range strs {
		strOffs[i] = uint32(len(w.buf))
		w.str(s)
	}

	w.uvarint(uint64(len(snap.Docs)))
	docOffs := make([]uint32, len(snap.Docs))
	fieldKeys := make([]string, 0, 8)
	for i, d := range snap.Docs {
		docOffs[i] = uint32(len(w.buf))
		w.uvarint(ref[d.ID])
		w.varint(int64(d.Time))
		w.uvarint(uint64(len(d.Concepts)))
		for _, c := range d.Concepts {
			w.uvarint(ref[c.Category])
			w.uvarint(ref[c.Canonical])
			w.varint(int64(c.Start))
			w.varint(int64(c.End))
		}
		fieldKeys = fieldKeys[:0]
		for k := range d.Fields {
			fieldKeys = append(fieldKeys, k)
		}
		sort.Strings(fieldKeys)
		w.uvarint(uint64(len(fieldKeys)))
		for _, k := range fieldKeys {
			w.uvarint(ref[k])
			w.uvarint(ref[d.Fields[k]])
		}
	}

	// Postings-list directory entries accumulate aside while the lists
	// stream into the body, then follow the string/doc offsets.
	dir := &writer{}
	entry := func(k0, k1 uint64, df int) {
		dir.u32(uint32(k0))
		dir.u32(uint32(k1))
		dir.u32(uint32(len(w.buf)))
		dir.u32(uint32(df))
	}

	w.uvarint(uint64(len(snap.Concepts)))
	for _, e := range snap.Concepts {
		w.uvarint(ref[e.Key[0]])
		w.uvarint(ref[e.Key[1]])
		entry(ref[e.Key[0]], ref[e.Key[1]], len(e.Posts))
		writePostings(w, e.Posts)
	}
	w.uvarint(uint64(len(snap.Categories)))
	for _, e := range snap.Categories {
		w.uvarint(ref[e.Category])
		entry(ref[e.Category], 0, len(e.Posts))
		writePostings(w, e.Posts)
	}
	w.uvarint(uint64(len(snap.Fields)))
	for _, e := range snap.Fields {
		w.uvarint(ref[e.Key[0]])
		w.uvarint(ref[e.Key[1]])
		entry(ref[e.Key[0]], ref[e.Key[1]], len(e.Posts))
		writePostings(w, e.Posts)
	}

	dirStart := uint32(len(w.buf))
	for _, off := range strOffs {
		w.u32(off)
	}
	for _, off := range docOffs {
		w.u32(off)
	}
	w.buf = append(w.buf, dir.buf...)
	w.u32(dirStart)
	w.u32(uint32(len(strs)))
	w.u32(uint32(len(snap.Docs)))
	w.u32(uint32(len(snap.Concepts)))
	w.u32(uint32(len(snap.Categories)))
	w.u32(uint32(len(snap.Fields)))
	if uint64(len(w.buf)) > 1<<32-1 {
		// The directory addresses the file with uint32 offsets; a
		// segment past 4 GiB would wrap them silently. The serving
		// layer seals far below this — fail loudly, not subtly.
		panic("store: segment exceeds the 4 GiB uint32 offset space")
	}

	bodyLen := uint64(len(w.buf) - segHeaderLen)
	crc := crc32.ChecksumIEEE(w.buf)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, bodyLen)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(len(snap.Docs)))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, SegmentVersion)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc)
	return w.buf
}

// buildStringTable collects every string a snapshot references, sorted
// unique, plus the string → index map used while encoding.
func buildStringTable(snap *mining.IndexSnapshot) ([]string, map[string]uint64) {
	set := map[string]struct{}{}
	add := func(s string) { set[s] = struct{}{} }
	for _, d := range snap.Docs {
		add(d.ID)
		for _, c := range d.Concepts {
			add(c.Category)
			add(c.Canonical)
		}
		for k, v := range d.Fields {
			add(k)
			add(v)
		}
	}
	for _, e := range snap.Concepts {
		add(e.Key[0])
		add(e.Key[1])
	}
	for _, e := range snap.Categories {
		add(e.Category)
	}
	for _, e := range snap.Fields {
		add(e.Key[0])
		add(e.Key[1])
	}
	strs := make([]string, 0, len(set))
	for s := range set {
		strs = append(strs, s)
	}
	sort.Strings(strs)
	ref := make(map[string]uint64, len(strs))
	for i, s := range strs {
		ref[s] = uint64(i)
	}
	return strs, ref
}

// writePostings emits one sorted postings list as varint deltas.
func writePostings(w *writer, posts []int) {
	w.uvarint(uint64(len(posts)))
	prev := -1
	for _, p := range posts {
		w.uvarint(uint64(p - prev))
		prev = p
	}
}

// segEnvelope is the validated fixed-size frame of a segment file —
// everything a reader learns before touching a single body varint.
type segEnvelope struct {
	docCount int
	bodyEnd  int // offset one past the varint-encoded body
	// Directory geometry:
	dirStart                        int
	nStrs, nDocs, nConc, nCat, nFld int
}

// checkEnvelope validates magic, version, footer geometry, CRC and the
// directory trailer: the directory sections must exactly fill the span
// between body and trailer. This is the complete up-front validation
// OpenMapped performs before serving lazily; everything past it is
// bounds-checked per read.
func checkEnvelope(data []byte) (segEnvelope, error) {
	var e segEnvelope
	if len(data) < segHeaderLen+segFooterLen {
		return e, corruptf("segment too short (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != segMagic {
		return e, corruptf("bad segment magic %q", data[:4])
	}
	version := binary.LittleEndian.Uint32(data[4:8])
	if version != SegmentVersion {
		return e, corruptf("unsupported segment version %d (want %d)", version, SegmentVersion)
	}
	foot := data[len(data)-segFooterLen:]
	bodyLen := binary.LittleEndian.Uint64(foot[0:8])
	if v := binary.LittleEndian.Uint32(foot[16:20]); v != version {
		return e, corruptf("footer version %d disagrees with header", v)
	}
	if bodyLen != uint64(len(data)-segHeaderLen-segFooterLen) {
		return e, corruptf("footer body length %d, file has %d body bytes",
			bodyLen, len(data)-segHeaderLen-segFooterLen)
	}
	wantCRC := binary.LittleEndian.Uint32(foot[20:24])
	if got := crc32.ChecksumIEEE(data[:len(data)-segFooterLen]); got != wantCRC {
		return e, corruptf("checksum mismatch: file %08x, computed %08x", wantCRC, got)
	}
	dc, err := intFromU(binary.LittleEndian.Uint64(foot[8:16]), "footer document count")
	if err != nil {
		return e, err
	}
	e.docCount = dc
	e.bodyEnd = len(data) - segFooterLen
	if e.bodyEnd-segHeaderLen < dirTrailerLen {
		return e, corruptf("segment too short for directory trailer")
	}
	tr := data[e.bodyEnd-dirTrailerLen : e.bodyEnd]
	e.dirStart = int(binary.LittleEndian.Uint32(tr[0:4]))
	e.nStrs = int(binary.LittleEndian.Uint32(tr[4:8]))
	e.nDocs = int(binary.LittleEndian.Uint32(tr[8:12]))
	e.nConc = int(binary.LittleEndian.Uint32(tr[12:16]))
	e.nCat = int(binary.LittleEndian.Uint32(tr[16:20]))
	e.nFld = int(binary.LittleEndian.Uint32(tr[20:24]))
	if e.nDocs != e.docCount {
		return e, corruptf("directory trailer has %d documents, footer says %d", e.nDocs, e.docCount)
	}
	dirBytes := 4*(e.nStrs+e.nDocs) + dirEntryLen*(e.nConc+e.nCat+e.nFld)
	if e.dirStart < segHeaderLen || e.dirStart+dirBytes != e.bodyEnd-dirTrailerLen {
		return e, corruptf("directory geometry invalid: start %d, %d directory bytes, trailer at %d",
			e.dirStart, dirBytes, e.bodyEnd-dirTrailerLen)
	}
	e.bodyEnd = e.dirStart
	return e, nil
}

// DecodeSegment parses segment bytes back into an index snapshot,
// validating the envelope (magic, version, length, CRC) before the body
// and bounds-checking every reference inside it. The offset directory
// is rebuilt from the body and must match the stored bytes exactly, so
// a file this function accepts is served identically by the mapped
// reader. Errors satisfy IsCorrupt; the
// function never panics on any input.
func DecodeSegment(data []byte) (*mining.IndexSnapshot, error) {
	env, err := checkEnvelope(data)
	if err != nil {
		return nil, err
	}

	r := &reader{buf: data[:env.bodyEnd], off: segHeaderLen}
	// dir re-accumulates the offset directory while the body decodes;
	// compared against the stored bytes at the end.
	dir := &writer{buf: make([]byte, 0, len(data)-segFooterLen-env.bodyEnd)}

	nStrs, err := r.count("string table")
	if err != nil {
		return nil, err
	}
	strs := make([]string, nStrs)
	for i := range strs {
		dir.u32(uint32(r.off))
		if strs[i], err = r.str(); err != nil {
			return nil, err
		}
	}
	strRef := func(what string) (uint64, string, error) {
		idx, err := r.uvarint()
		if err != nil {
			return 0, "", err
		}
		if idx >= uint64(len(strs)) {
			return 0, "", corruptf("%s string ref %d out of table (size %d)", what, idx, len(strs))
		}
		return idx, strs[idx], nil
	}
	str := func(what string) (string, error) {
		_, s, err := strRef(what)
		return s, err
	}

	nDocs, err := r.count("document")
	if err != nil {
		return nil, err
	}
	if nDocs != env.docCount {
		return nil, corruptf("body has %d documents, footer says %d", nDocs, env.docCount)
	}
	snap := &mining.IndexSnapshot{Docs: make([]mining.Document, nDocs)}
	for i := range snap.Docs {
		dir.u32(uint32(r.off))
		d := &snap.Docs[i]
		if d.ID, err = str("doc id"); err != nil {
			return nil, err
		}
		tm, err := r.varint()
		if err != nil {
			return nil, err
		}
		d.Time = int(tm)
		nc, err := r.count("concept")
		if err != nil {
			return nil, err
		}
		if nc > 0 {
			d.Concepts = make([]annotate.Concept, nc)
			for j := range d.Concepts {
				c := &d.Concepts[j]
				if c.Category, err = str("concept category"); err != nil {
					return nil, err
				}
				if c.Canonical, err = str("concept canonical"); err != nil {
					return nil, err
				}
				start, err := r.varint()
				if err != nil {
					return nil, err
				}
				end, err := r.varint()
				if err != nil {
					return nil, err
				}
				c.Start, c.End = int(start), int(end)
			}
		}
		nf, err := r.count("field")
		if err != nil {
			return nil, err
		}
		if nf > 0 {
			d.Fields = make(map[string]string, nf)
			for j := 0; j < nf; j++ {
				k, err := str("field name")
				if err != nil {
					return nil, err
				}
				v, err := str("field value")
				if err != nil {
					return nil, err
				}
				if _, dup := d.Fields[k]; dup {
					return nil, corruptf("document %q repeats field %q", d.ID, k)
				}
				d.Fields[k] = v
			}
		}
	}

	// readKeyed decodes one postings list with a one- or two-part key,
	// mirroring the encoder's directory entry as it goes.
	readKeyed := func(what0, what1 string) ([2]string, []int, error) {
		ref0, k0, err := strRef(what0)
		if err != nil {
			return [2]string{}, nil, err
		}
		var ref1 uint64
		var k1 string
		if what1 != "" {
			if ref1, k1, err = strRef(what1); err != nil {
				return [2]string{}, nil, err
			}
		}
		listOff := r.off
		posts, err := readPostings(r, nDocs)
		if err != nil {
			return [2]string{}, nil, err
		}
		dir.u32(uint32(ref0))
		dir.u32(uint32(ref1))
		dir.u32(uint32(listOff))
		dir.u32(uint32(len(posts)))
		return [2]string{k0, k1}, posts, nil
	}

	nConc, err := r.count("concept postings")
	if err != nil {
		return nil, err
	}
	snap.Concepts = make([]mining.KeyedPostings, nConc)
	for i := range snap.Concepts {
		e := &snap.Concepts[i]
		if e.Key, e.Posts, err = readKeyed("postings category", "postings canonical"); err != nil {
			return nil, err
		}
	}
	nCat, err := r.count("category postings")
	if err != nil {
		return nil, err
	}
	snap.Categories = make([]mining.CatPostings, nCat)
	for i := range snap.Categories {
		e := &snap.Categories[i]
		key, posts, err := readKeyed("postings category", "")
		if err != nil {
			return nil, err
		}
		e.Category, e.Posts = key[0], posts
	}
	nField, err := r.count("field postings")
	if err != nil {
		return nil, err
	}
	snap.Fields = make([]mining.KeyedPostings, nField)
	for i := range snap.Fields {
		e := &snap.Fields[i]
		if e.Key, e.Posts, err = readKeyed("postings field", "postings value"); err != nil {
			return nil, err
		}
	}
	if r.remaining() != 0 {
		return nil, corruptf("%d trailing bytes after segment body", r.remaining())
	}
	dir.u32(uint32(env.dirStart))
	dir.u32(uint32(nStrs))
	dir.u32(uint32(nDocs))
	dir.u32(uint32(nConc))
	dir.u32(uint32(nCat))
	dir.u32(uint32(nField))
	if stored := data[env.dirStart : len(data)-segFooterLen]; !bytes.Equal(dir.buf, stored) {
		return nil, corruptf("offset directory disagrees with body")
	}
	return snap, nil
}

// readPostings decodes one delta-encoded list, enforcing strictly
// increasing positions inside [0, nDocs).
func readPostings(r *reader, nDocs int) ([]int, error) {
	n, err := r.count("postings")
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
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
		if p >= nDocs {
			return nil, corruptf("postings position %d beyond %d documents", p, nDocs)
		}
		posts[i] = p
		prev = p
	}
	return posts, nil
}
