package store

import (
	"hash/crc32"
	"math"
	"slices"

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
// The footer is written last and read first: the reader validates magic,
// version, length, checksum and the directory's geometry before decoding
// a single body byte, so truncated, bit-flipped, or foreign files are
// rejected up front. There is one reader (newMapped and the Mapped
// reads, mapped.go): a store that maps its segments serves them through
// it lazily, and one that does not reads the file whole, opens it
// through the same reader and copies every document and list onto the
// heap (mining.Materialize). Past the envelope every read goes through
// the directory and is bounds-checked — the body's count prefixes are
// written for a sequential reader and read by none. A repeated key fails
// the open, and every string reference, document record and postings
// list (strictly increasing positions in range, of the length the
// directory promised) is checked as it is read: a segment serves the
// index it was written from, or it errors; it never panics and never
// silently serves wrong data.
//
// Document records are in strictly increasing ID order, the order of
// every index's positions (mining.Backing): Seal builds it and
// EncodeSegment writes records by position. The reader checks it once,
// at open (checkIDOrder), and refuses a file that breaks it as corrupt.
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

// EncodeSegment serializes a sealed index, walking its Backing: the
// documents by position, then each postings family in key order. The
// same index always yields the same bytes (the string table is sorted,
// lists and document fields are emitted key-sorted), whichever backing
// holds it: a mapped segment re-encodes to its own bytes.
func EncodeSegment(ix *mining.Index) []byte {
	bk := ix.Backing()
	nDocs := bk.DocCount()
	var concepts, fields [][2]string
	var categories []string
	bk.EachConcept(func(cat, canon string, _ int) { concepts = append(concepts, [2]string{cat, canon}) })
	bk.EachCategory(func(cat string, _ int) { categories = append(categories, cat) })
	bk.EachField(func(field, value string, _ int) { fields = append(fields, [2]string{field, value}) })
	byKey := func(a, b [2]string) int { return slices.Compare(a[:], b[:]) }
	slices.SortFunc(concepts, byKey)
	slices.Sort(categories)
	slices.SortFunc(fields, byKey)

	strs, ref := buildStringTable(bk, concepts, categories, fields)
	strRef := func(b []byte, s string) []byte { return wire.AppendUvarint(b, ref[s]) }

	b := wire.AppendU32(append(make([]byte, 0, 1<<16), segMagic[:]...), SegmentVersion)
	// The directory accumulates aside, in its stored order, while the
	// records it locates stream into the body.
	dir := make([]byte, 0, 4*(len(strs)+nDocs)+dirEntryLen*(len(concepts)+len(categories)+len(fields)))

	b = wire.AppendInt(b, len(strs))
	for _, s := range strs {
		dir = wire.AppendU32(dir, uint32(len(b)))
		b = wire.AppendBytes(b, s)
	}
	b = wire.AppendInt(b, nDocs)
	for i := range nDocs {
		dir = wire.AppendU32(dir, uint32(len(b)))
		b = appendDocument(b, bk.Doc(i), strRef)
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
	b = wire.AppendInt(b, len(concepts))
	for _, k := range concepts {
		list(bk.ConceptPostings(k[0], k[1]), k[0], k[1])
	}
	b = wire.AppendInt(b, len(categories))
	for _, cat := range categories {
		list(bk.CategoryPostings(cat), cat)
	}
	b = wire.AppendInt(b, len(fields))
	for _, k := range fields {
		list(bk.FieldPostings(k[0], k[1]), k[0], k[1])
	}

	dirStart := len(b)
	b = append(b, dir...)
	for _, n := range []int{dirStart, len(strs), nDocs, len(concepts), len(categories), len(fields)} {
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
	b = wire.AppendU64(b, uint64(nDocs))
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

// buildStringTable collects every string a segment references — those
// of every document and of every postings key — sorted unique, plus the
// string → index map used while encoding.
func buildStringTable(bk mining.Backing, concepts [][2]string, categories []string, fields [][2]string) ([]string, map[string]uint64) {
	set := map[string]struct{}{}
	add := func(s string) { set[s] = struct{}{} }
	for i := range bk.DocCount() {
		d := bk.Doc(i)
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
	for _, keys := range [][][2]string{concepts, fields} {
		for _, k := range keys {
			add(k[0])
			add(k[1])
		}
	}
	for _, cat := range categories {
		add(cat)
	}
	strs := make([]string, 0, len(set))
	for s := range set {
		strs = append(strs, s)
	}
	slices.Sort(strs)
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
// newMapped performs before it walks the directory; everything past it
// is bounds-checked per read.
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
