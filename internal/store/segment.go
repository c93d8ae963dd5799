package store

import (
	"bytes"
	"hash/crc32"
	"math"
	"sort"

	"bivoc/internal/mining"
	"bivoc/internal/wire"
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
	strRef := func(b []byte, s string) []byte { return wire.AppendUvarint(b, ref[s]) }

	b := wire.AppendU32(append(make([]byte, 0, 1<<16), segMagic[:]...), SegmentVersion)
	// The directory accumulates aside, in its stored order, while the
	// records it locates stream into the body.
	dir := make([]byte, 0, 4*(len(strs)+len(snap.Docs))+dirEntryLen*(len(snap.Concepts)+len(snap.Categories)+len(snap.Fields)))

	b = wire.AppendInt(b, len(strs))
	for _, s := range strs {
		dir = wire.AppendU32(dir, uint32(len(b)))
		b = wire.AppendBytes(b, s)
	}
	b = wire.AppendInt(b, len(snap.Docs))
	for _, d := range snap.Docs {
		dir = wire.AppendU32(dir, uint32(len(b)))
		b = appendDocument(b, d, strRef)
	}
	list := func(posts []int, key ...string) {
		var refs [2]uint64
		for i, k := range key {
			refs[i] = ref[k]
			b = wire.AppendUvarint(b, refs[i])
		}
		dir = appendDirEntry(dir, refs, len(b), len(posts))
		b = appendPostings(b, posts)
	}
	b = wire.AppendInt(b, len(snap.Concepts))
	for _, e := range snap.Concepts {
		list(e.Posts, e.Key[0], e.Key[1])
	}
	b = wire.AppendInt(b, len(snap.Categories))
	for _, e := range snap.Categories {
		list(e.Posts, e.Category)
	}
	b = wire.AppendInt(b, len(snap.Fields))
	for _, e := range snap.Fields {
		list(e.Posts, e.Key[0], e.Key[1])
	}

	dirStart := len(b)
	b = append(b, dir...)
	for _, n := range []int{dirStart, len(strs), len(snap.Docs), len(snap.Concepts), len(snap.Categories), len(snap.Fields)} {
		b = wire.AppendU32(b, uint32(n))
	}
	if uint64(len(b)) > math.MaxUint32 {
		// The directory addresses the file with uint32 offsets; a
		// segment past 4 GiB would wrap them silently. The serving
		// layer seals far below this — fail loudly, not subtly.
		panic("store: segment exceeds the 4 GiB uint32 offset space")
	}

	crc := crc32.ChecksumIEEE(b)
	b = wire.AppendU64(b, uint64(len(b)-segHeaderLen))
	b = wire.AppendU64(b, uint64(len(snap.Docs)))
	return wire.AppendU32(wire.AppendU32(b, SegmentVersion), crc)
}

// appendDirEntry appends one postings list's fixed-width directory
// entry: its key refs (the second 0 where the key has one part), the
// offset of its count prefix and its length.
func appendDirEntry(dir []byte, refs [2]uint64, listOff, df int) []byte {
	for _, v := range []uint64{refs[0], refs[1], uint64(listOff), uint64(df)} {
		dir = wire.AppendU32(dir, uint32(v))
	}
	return dir
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
	head := wire.ReaderAt(data, 4)
	version := head.U32()
	if version != SegmentVersion {
		return e, corruptf("unsupported segment version %d (want %d)", version, SegmentVersion)
	}
	footAt := len(data) - segFooterLen
	foot := wire.ReaderAt(data, footAt)
	bodyLen, docCount, footVersion, wantCRC := foot.U64(), foot.U64(), foot.U32(), foot.U32()
	if footVersion != version {
		return e, corruptf("footer version %d disagrees with header", footVersion)
	}
	if bodyLen != uint64(footAt-segHeaderLen) {
		return e, corruptf("footer body length %d, file has %d body bytes", bodyLen, footAt-segHeaderLen)
	}
	if got := crc32.ChecksumIEEE(data[:footAt]); got != wantCRC {
		return e, corruptf("checksum mismatch: file %08x, computed %08x", wantCRC, got)
	}
	if docCount > math.MaxInt32 {
		return e, corruptf("footer document count %d out of range", docCount)
	}
	e.docCount = int(docCount)
	trailerAt := footAt - dirTrailerLen
	if trailerAt < segHeaderLen {
		return e, corruptf("segment too short for directory trailer")
	}
	tr := wire.ReaderAt(data, trailerAt)
	for _, f := range []*int{&e.dirStart, &e.nStrs, &e.nDocs, &e.nConc, &e.nCat, &e.nFld} {
		*f = int(tr.U32())
	}
	if e.nDocs != e.docCount {
		return e, corruptf("directory trailer has %d documents, footer says %d", e.nDocs, e.docCount)
	}
	dirBytes := 4*(e.nStrs+e.nDocs) + dirEntryLen*(e.nConc+e.nCat+e.nFld)
	if e.dirStart < segHeaderLen || e.dirStart+dirBytes != trailerAt {
		return e, corruptf("directory geometry invalid: start %d, %d directory bytes, trailer at %d",
			e.dirStart, dirBytes, trailerAt)
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
	r := wire.ReaderAt(data[:env.bodyEnd], segHeaderLen)
	stored := data[env.dirStart : len(data)-segFooterLen]
	// dir re-accumulates the offset directory while the body decodes;
	// compared against the stored bytes at the end.
	dir := make([]byte, 0, len(stored))

	strs := make([]string, r.Count(1))
	for i := range strs {
		dir = wire.AppendU32(dir, uint32(r.Offset()))
		strs[i] = r.String()
	}
	strRef := func() (uint64, string) {
		idx := r.Uvarint()
		if idx >= uint64(len(strs)) {
			r.Failf("string ref %d out of table (size %d)", idx, len(strs))
			return 0, ""
		}
		return idx, strs[idx]
	}
	str := func() string {
		_, s := strRef()
		return s
	}

	nDocs := r.Count(1)
	if nDocs != env.docCount && r.Err() == nil {
		r.Failf("body has %d documents, footer says %d", nDocs, env.docCount)
	}
	snap := &mining.IndexSnapshot{Docs: make([]mining.Document, nDocs)}
	for i := range snap.Docs {
		dir = wire.AppendU32(dir, uint32(r.Offset()))
		snap.Docs[i] = readDocument(&r, str)
	}

	// list decodes one postings list under a one- or two-part key,
	// mirroring the encoder's directory entry as it goes.
	list := func(parts int) (key [2]string, posts []int) {
		var refs [2]uint64
		for i := range parts {
			refs[i], key[i] = strRef()
		}
		listOff := r.Offset()
		posts = readPostings(&r, -1, nDocs)
		dir = appendDirEntry(dir, refs, listOff, len(posts))
		return key, posts
	}
	snap.Concepts = make([]mining.KeyedPostings, r.Count(1))
	for i := range snap.Concepts {
		snap.Concepts[i].Key, snap.Concepts[i].Posts = list(2)
	}
	snap.Categories = make([]mining.CatPostings, r.Count(1))
	for i := range snap.Categories {
		key, posts := list(1)
		snap.Categories[i] = mining.CatPostings{Category: key[0], Posts: posts}
	}
	snap.Fields = make([]mining.KeyedPostings, r.Count(1))
	for i := range snap.Fields {
		snap.Fields[i].Key, snap.Fields[i].Posts = list(2)
	}
	if err := r.Done(); err != nil {
		return nil, corrupt(err)
	}
	for _, n := range []int{env.dirStart, len(strs), nDocs, len(snap.Concepts), len(snap.Categories), len(snap.Fields)} {
		dir = wire.AppendU32(dir, uint32(n))
	}
	if !bytes.Equal(dir, stored) {
		return nil, corruptf("offset directory disagrees with body")
	}
	return snap, nil
}
