package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bivoc/internal/mining"
	"bivoc/internal/voctest"
)

// sealedIndex builds the sealed, Prepared index over docs — the object
// segments persist.
func sealedIndex(docs []mining.Document) *mining.Index {
	si := mining.NewStreamIndex()
	si.AddBatch(docs)
	return si.Seal()
}

// soleSegment returns the index of a recovery that must hold exactly one
// segment.
func soleSegment(t *testing.T, rec *Recovery) *mining.Index {
	t.Helper()
	if len(rec.Segments) != 1 {
		t.Fatalf("recovered %d segments (skipped %v), want exactly one", len(rec.Segments), rec.SkippedSegments)
	}
	return rec.Segments[0].Index
}

func TestSegmentEncodeDecodeRoundTrip(t *testing.T) {
	t.Parallel()
	w := voctest.NewWorld(1, 200)
	got, err := materialize("round-trip", EncodeSegment(sealedIndex(w.Docs)))
	if err != nil {
		t.Fatal(err)
	}
	got.Prepare()
	voctest.CheckQueriers(t, got, w.Index().Naive(), w)
}

func TestSegmentEncodeDeterministic(t *testing.T) {
	ix := sealedIndex(voctest.NewWorld(2, 100).Docs)
	if !bytes.Equal(EncodeSegment(ix), EncodeSegment(ix)) {
		t.Error("two encodings of the same index differ")
	}
}

// TestSegmentDecodeRejectsDamage flips, truncates and contaminates real
// segment bytes and requires the materializing open to refuse them with
// a clean error (IsCorrupt) every time.
func TestSegmentDecodeRejectsDamage(t *testing.T) {
	good := EncodeSegment(sealedIndex(voctest.NewWorld(3, 60).Docs))
	check := func(name string, data []byte) {
		t.Helper()
		if _, err := materialize(name, data); err == nil {
			t.Errorf("%s: reader accepted damaged segment", name)
		} else if !IsCorrupt(err) {
			t.Errorf("%s: error does not satisfy IsCorrupt: %v", name, err)
		}
	}
	check("empty", nil)
	check("magic only", good[:4])
	check("truncated half", good[:len(good)/2])
	check("truncated one byte", good[:len(good)-1])
	for _, off := range []int{0, 5, segHeaderLen + 3, len(good) / 2, len(good) - 5} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x40
		check(fmt.Sprintf("bit flip at %d", off), bad)
	}
	check("trailing garbage", append(append([]byte(nil), good...), 0xFF, 0x01))
	wrongVersion := append([]byte(nil), good...)
	wrongVersion[4] = 99
	check("wrong version", wrongVersion)
}

func TestStoreWriteLoadRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	w := voctest.NewWorld(4, 150)
	docs := w.Docs
	ix := sealedIndex(docs)

	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec := st.Recovered(); len(rec.Segments) != 0 || len(rec.WALDocs) != 0 {
		t.Fatalf("fresh dir recovered state: %+v", rec)
	}
	info, err := st.ReplaceSegments(nil, ix)
	if err != nil {
		t.Fatal(err)
	}
	if info.SegmentGen != 1 || info.SegmentDocs != len(docs) || info.SegmentBytes <= 0 {
		t.Fatalf("segment stats: %+v", info)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec := st2.Recovered()
	if rec.SegmentGen != 1 || len(rec.WALDocs) != 0 {
		t.Fatalf("recovery: gen=%d docs=%d wal=%d", rec.SegmentGen, rec.SegmentDocs, len(rec.WALDocs))
	}
	voctest.CheckQueriers(t, soleSegment(t, rec), w.Index().Naive(), w)
}

func TestWALAppendReplay(t *testing.T) {
	dir := t.TempDir()
	docs := voctest.NewWorld(5, 40).Docs
	st, err := Open(dir, Options{SyncEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if err := st.AppendWAL(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec := st2.Recovered()
	if len(rec.Segments) != 0 {
		t.Fatal("no segment was written, but recovery has one")
	}
	if !reflect.DeepEqual(rec.WALDocs, voctest.AsStored(docs)) {
		t.Fatalf("WAL replay returned %d docs, want %d (or content diverges)", len(rec.WALDocs), len(docs))
	}
}

// TestWALTornTail simulates a crash mid-record: appending garbage and
// cutting a record short must both replay to exactly the intact prefix,
// and the reopened WAL must truncate the tail and keep appending.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	docs := voctest.NewWorld(6, 20).Docs
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs[:10] {
		if err := st.AppendWAL(d); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	walPath := filepath.Join(dir, "wal.log")

	// Crash mid-write: a partial record at the tail.
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	torn := append([]byte(nil), full...)
	torn = appendWALRecord(torn, docs[10])
	torn = torn[:len(torn)-3]
	if err := os.WriteFile(walPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := st2.Recovered()
	if len(rec.WALDocs) != 10 || rec.WALDropped == 0 {
		t.Fatalf("torn replay: %d docs, %d dropped bytes", len(rec.WALDocs), rec.WALDropped)
	}
	// The torn tail must be gone: appending and replaying again yields
	// exactly 11 records.
	if err := st2.AppendWAL(docs[10]); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if got := st3.Recovered().WALDocs; !reflect.DeepEqual(got, voctest.AsStored(docs[:11])) {
		t.Fatalf("after truncate+append: %d docs, want 11 matching", len(got))
	}
}

// TestRecoveryDedupSegmentAndWAL covers the crash window between
// segment rename and WAL reset: both hold the same documents, and
// recovery must keep each exactly once (segment copy wins).
func TestRecoveryDedupSegmentAndWAL(t *testing.T) {
	dir := t.TempDir()
	docs := voctest.NewWorld(7, 30).Docs
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if err := st.AppendWAL(d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.ReplaceSegments(nil, sealedIndex(docs)); err != nil {
		t.Fatal(err)
	}
	// Crash here: no ResetWAL.
	st.Close()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec := st2.Recovered()
	if got := soleSegment(t, rec).Len(); got != len(docs) {
		t.Fatalf("segment recovered with %d docs, want %d", got, len(docs))
	}
	if len(rec.WALDocs) != 0 {
		t.Fatalf("WAL docs not deduplicated against segment: %d left", len(rec.WALDocs))
	}
	if got := len(rec.IDs()); got != len(docs) {
		t.Fatalf("IDs() = %d, want %d", got, len(docs))
	}
}

// TestSegmentFallback damages the only segment the manifest names and
// requires recovery to fall back to the previous generation's file —
// the directory a crash leaves between a replacement's manifest swap and
// the unlink of what it superseded.
func TestSegmentFallback(t *testing.T) {
	dir := t.TempDir()
	docsA, docsB := voctest.NewWorld(8, 30).Docs, voctest.NewWorld(9, 45).Docs
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	infoA, err := st.ReplaceSegments(nil, sealedIndex(docsA))
	if err != nil {
		t.Fatal(err)
	}
	segA, err := os.ReadFile(infoA.SegmentPath)
	if err != nil {
		t.Fatal(err)
	}
	info, err := st.ReplaceSegments([]uint64{infoA.SegmentGen}, sealedIndex(docsB))
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	// The crash: generation 1 was never unlinked.
	if err := os.WriteFile(infoA.SegmentPath, segA, 0o644); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in the newest segment.
	data, err := os.ReadFile(info.SegmentPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 1
	if err := os.WriteFile(info.SegmentPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec := st2.Recovered()
	if rec.SegmentGen != 1 || soleSegment(t, rec).Len() != len(docsA) {
		t.Fatalf("fallback failed: gen=%d docs=%v", rec.SegmentGen, rec.SegmentDocs)
	}
	if len(rec.SkippedSegments) != 1 {
		t.Fatalf("SkippedSegments = %v, want one entry", rec.SkippedSegments)
	}
	// The next segment write must not collide with the damaged gen 2.
	if info, err := st2.ReplaceSegments(nil, sealedIndex(docsB)); err != nil || info.SegmentGen != 3 {
		t.Fatalf("next ReplaceSegments: gen=%d err=%v", info.SegmentGen, err)
	}
}

// TestOrphanCleanup: temp files from interrupted writes disappear on
// Open; real segments survive.
func TestOrphanCleanup(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReplaceSegments(nil, sealedIndex(voctest.NewWorld(10, 10).Docs)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	orphan := filepath.Join(dir, "seg-0000000000000002.seg.tmp")
	if err := os.WriteFile(orphan, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Error("orphaned temp file survived Open")
	}
	if soleSegment(t, st2.Recovered()).Len() != 10 {
		t.Error("real segment did not survive orphan cleanup")
	}
}

// TestForeignSegmentNamesAreNotOurs: a seg-*.seg file under a name the
// store never writes — a generation without its zero padding, with
// bytes after the digits, in hex — is no segment of the lineage, even
// holding a segment's bytes. Under either loader a directory of only
// such a file opens empty, and beside a real segment it neither hides
// that segment nor moves the next generation number.
func TestForeignSegmentNamesAreNotOurs(t *testing.T) {
	seg := EncodeSegment(sealedIndex(voctest.NewWorld(12, 10).Docs))
	for _, name := range []string{"seg-1.seg", "seg-12abc.seg", "seg-0x10.seg", "seg-00000000000000001.seg"} {
		for _, mapped := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/mapped-%v", name, mapped), func(t *testing.T) {
				for _, real := range []bool{false, true} {
					dir := t.TempDir()
					if real {
						st, err := Open(dir, Options{MapSegments: mapped})
						if err != nil {
							t.Fatal(err)
						}
						if _, err := st.ReplaceSegments(nil, sealedIndex(voctest.NewWorld(13, 20).Docs)); err != nil {
							t.Fatal(err)
						}
						st.Close()
					}
					if err := os.WriteFile(filepath.Join(dir, name), seg, 0o644); err != nil {
						t.Fatal(err)
					}
					st, err := Open(dir, Options{MapSegments: mapped})
					if err != nil {
						t.Fatalf("real segment %v: Open: %v", real, err)
					}
					rec := st.Recovered()
					want, next := 0, uint64(1)
					if real {
						want, next = 20, 2
					}
					info, err := st.ReplaceSegments(nil, sealedIndex(voctest.NewWorld(14, 5).Docs))
					st.Close()
					if rec.SegmentDocs != want || len(rec.SkippedSegments) != 0 || err != nil || info.SegmentGen != next {
						t.Errorf("real segment %v: recovered %d docs, skipped %v; next generation %d (%v), want %d docs, none skipped, generation %d",
							real, rec.SegmentDocs, rec.SkippedSegments, info.SegmentGen, err, want, next)
					}
				}
			})
		}
	}
}

// TestSegmentPruning: after several seals, each superseding the one
// before, only the live generation remains on disk.
func TestSegmentPruning(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var prev []uint64
	for i := 0; i < 4; i++ {
		info, err := st.ReplaceSegments(prev, sealedIndex(voctest.NewWorld(int64(i), 10+i).Docs))
		if err != nil {
			t.Fatal(err)
		}
		prev = []uint64{info.SegmentGen}
	}
	gens, err := st.scanSegments()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gens, []uint64{4}) {
		t.Fatalf("segments on disk after pruning: %v, want [4]", gens)
	}
}

// TestResetWAL: records vanish, the header survives, appends keep
// working.
func TestResetWAL(t *testing.T) {
	dir := t.TempDir()
	docs := voctest.NewWorld(11, 12).Docs
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if err := st.AppendWAL(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.ResetWAL(); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.WALRecords != 0 || s.WALBytes != walHeaderLen {
		t.Fatalf("stats after reset: %+v", s)
	}
	if err := st.AppendWAL(docs[0]); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Recovered().WALDocs; len(got) != 1 || got[0].ID != docs[0].ID {
		t.Fatalf("replay after reset+append: %v", got)
	}
}

// TestWALRejectsForeignFile: a wal.log that was never a WAL must error,
// not silently read as empty.
func TestWALRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), []byte("not a wal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !IsCorrupt(err) {
		t.Fatalf("Open on foreign wal.log: err=%v, want corrupt", err)
	}
}
