package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bivoc/internal/mining"
	"bivoc/internal/voctest"
)

// segmentBatches splits a corpus into sealed per-batch indexes, the
// shape the segmented serving layer appends.
func segmentBatches(docs []mining.Document, size int) []*mining.Index {
	var out []*mining.Index
	for lo := 0; lo < len(docs); lo += size {
		hi := lo + size
		if hi > len(docs) {
			hi = len(docs)
		}
		out = append(out, sealedIndex(docs[lo:hi]))
	}
	return out
}

// TestAppendSegmentLineage pins the multi-segment lineage: appends
// accumulate, stats report the newest segment and the total, and a
// reopen recovers every live segment via the manifest.
func TestAppendSegmentLineage(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	w := voctest.NewWorld(7, 90)
	docs := w.Docs
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range segmentBatches(docs, 30) {
		if _, err := st.AppendSegment(ix); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.SegmentGen != 3 || stats.SegmentDocs != 90 || stats.SegmentBytes <= 0 {
		t.Fatalf("after 3 appends: gen %d of %d bytes, %d docs; want gen 3, 90 docs", stats.SegmentGen, stats.SegmentBytes, stats.SegmentDocs)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec, opened := st2.Recovered(), st2.Stats()
	if len(rec.Segments) != 3 || opened.SegmentGen != 3 || opened.RecoveredSegmentDocs != 90 {
		t.Fatalf("recovered %d segments, gen %d, %d docs; want 3/3/90", len(rec.Segments), opened.SegmentGen, opened.RecoveredSegmentDocs)
	}
	for i, seg := range rec.Segments {
		if seg.Gen != uint64(i+1) || seg.Index.Len() != 30 {
			t.Errorf("recovered segment %d is gen %d with %d docs, want gen %d with 30", i, seg.Gen, seg.Index.Len(), i+1)
		}
	}
	if got := rec.IDs(); len(got) != 90 {
		t.Fatalf("recovered %d document IDs, want 90", len(got))
	}
	// Fan-in over the recovered segments must match the full corpus.
	var ixs []*mining.Index
	for _, seg := range rec.Segments {
		ixs = append(ixs, seg.Index)
	}
	voctest.CheckQueriers(t, mining.NewSegmentSet(ixs...), w.Index().Naive(), w)
}

// TestReplaceSegmentsCompaction pins the compaction path: the merged
// segment supersedes its inputs in the manifest, the superseded files
// are deleted, and a reopen sees the compacted lineage.
func TestReplaceSegmentsCompaction(t *testing.T) {
	dir := t.TempDir()
	docs := voctest.NewWorld(11, 80).Docs
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range segmentBatches(docs, 20) {
		if _, err := st.AppendSegment(ix); err != nil {
			t.Fatal(err)
		}
	}
	// Compact generations 1-3 into one; generation 4 stays.
	merged := mining.MergeSegments(
		sealedIndex(docs[:20]), sealedIndex(docs[20:40]), sealedIndex(docs[40:60]))
	stats, err := st.ReplaceSegments([]uint64{1, 2, 3}, merged)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentGen != 5 || stats.SegmentDocs != 80 {
		t.Fatalf("after compaction: gen %d, %d docs; want 5/80", stats.SegmentGen, stats.SegmentDocs)
	}
	for _, g := range []uint64{1, 2, 3} {
		if _, err := os.Stat(st.segmentPath(g)); !os.IsNotExist(err) {
			t.Errorf("superseded segment gen %d still on disk (err=%v)", g, err)
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
	rec, opened := st2.Recovered(), st2.Stats()
	if len(rec.Segments) != 2 || opened.RecoveredSegmentDocs != 80 || rec.Segments[0].Gen != 4 || rec.Segments[1].Gen != 5 {
		t.Fatalf("recovered %d segments with %d docs, want gens [4 5] with 80", len(rec.Segments), opened.RecoveredSegmentDocs)
	}
	if len(opened.SkippedSegments) != 0 {
		t.Errorf("clean compacted lineage reports skipped segments: %v", opened.SkippedSegments)
	}
}

// TestManifestDamagedSegmentSkipped pins degraded recovery: when one
// live segment of a multi-segment lineage is damaged, the rest still
// load and the loss is reported.
func TestManifestDamagedSegmentSkipped(t *testing.T) {
	dir := t.TempDir()
	docs := voctest.NewWorld(3, 60).Docs
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range segmentBatches(docs, 20) {
		if _, err := st.AppendSegment(ix); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip bytes inside segment 2's payload.
	path := filepath.Join(dir, "seg-0000000000000002.seg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec, opened := st2.Recovered(), st2.Stats()
	if len(rec.Segments) != 2 || opened.RecoveredSegmentDocs != 40 {
		t.Fatalf("recovered %d segments with %d docs, want the 2 intact ones with 40", len(rec.Segments), opened.RecoveredSegmentDocs)
	}
	if len(opened.SkippedSegments) != 1 {
		t.Fatalf("skipped = %v, want exactly the damaged segment", opened.SkippedSegments)
	}
	// New generations must number past the damaged file.
	if _, err := st2.AppendSegment(sealedIndex(docs[20:40])); err != nil {
		t.Fatal(err)
	}
	if gen := st2.Stats().SegmentGen; gen != 4 {
		t.Errorf("next generation = %d, want 4 (past the damaged gen 2 and live gen 3)", gen)
	}
}

// TestManifestMissingFallsBack pins pre-manifest compatibility: a
// directory holding only segment files (no MANIFEST) recovers the
// newest readable one.
func TestManifestMissingFallsBack(t *testing.T) {
	dir := t.TempDir()
	docs := voctest.NewWorld(5, 50).Docs
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReplaceSegments(nil, sealedIndex(docs)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "MANIFEST")); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec, opened := st2.Recovered(), st2.Stats()
	if len(rec.Segments) != 1 || opened.SegmentGen != 1 || opened.RecoveredSegmentDocs != 50 {
		t.Fatalf("manifest-less recovery = %d segments, gen %d, %d docs; want one, gen 1 with 50", len(rec.Segments), opened.SegmentGen, opened.RecoveredSegmentDocs)
	}
}

// TestManifestMalformedFailsOpen: a MANIFEST that exists but does not
// parse — a wrong header, a generation that is not a number — fails Open
// with a corruption error naming the file, instead of serving one
// segment file of the lineage and naming nothing of the rest.
func TestManifestMalformedFailsOpen(t *testing.T) {
	t.Parallel()
	for name, manifest := range map[string]string{
		"header":     "BVMF 2\n1\n2\n3\n",
		"generation": "BVMF 1\n1\nx2\n3\n",
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			st, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, ix := range segmentBatches(voctest.NewWorld(31, 60).Docs, 20) {
				if _, err := st.AppendSegment(ix); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.ResetWAL(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte(manifest), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, mapped := range []bool{false, true} {
				st, err := Open(dir, Options{MapSegments: mapped})
				if err == nil {
					rec, opened := st.Recovered(), st.Stats()
					st.Close()
					t.Fatalf("mapped=%v: Open over a malformed MANIFEST succeeded with %d segments, %d documents, skipped %v",
						mapped, len(rec.Segments), opened.RecoveredSegmentDocs, opened.SkippedSegments)
				}
				if !IsCorrupt(err) || !strings.Contains(err.Error(), "MANIFEST") {
					t.Fatalf("mapped=%v: Open error %q does not satisfy IsCorrupt naming MANIFEST", mapped, err)
				}
			}
		})
	}
}

// TestAppendIsReplaceNothing pins the one mutator: a lineage built with
// AppendSegment and one built with ReplaceSegments(nil, …) leave the
// same files holding the same bytes, and report the same stats.
func TestAppendIsReplaceNothing(t *testing.T) {
	batches := segmentBatches(voctest.NewWorld(13, 90).Docs, 30)
	build := func(add func(*Store, *mining.Index) (Stats, error)) (string, Stats) {
		dir := t.TempDir()
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var last Stats
		for _, ix := range batches {
			if last, err = add(st, ix); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, last
	}
	appended, statsA := build((*Store).AppendSegment)
	replaced, statsR := build(func(st *Store, ix *mining.Index) (Stats, error) { return st.ReplaceSegments(nil, ix) })

	if statsA.SegmentGen != statsR.SegmentGen || statsA.SegmentDocs != statsR.SegmentDocs ||
		statsA.SegmentBytes != statsR.SegmentBytes {
		t.Errorf("stats differ: append %+v, replace %+v", statsA, statsR)
	}
	entries, err := os.ReadDir(appended)
	if err != nil {
		t.Fatal(err)
	}
	other, err := os.ReadDir(replaced)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(other) || len(entries) != 5 { // three segments, MANIFEST, wal.log
		t.Fatalf("append left %d files, replace %d; want 5 each", len(entries), len(other))
	}
	for _, e := range entries {
		a, err := os.ReadFile(filepath.Join(appended, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(replaced, e.Name()))
		if err != nil {
			t.Fatalf("replace did not write what append wrote: %v", err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between the two directories", e.Name())
		}
	}
}
