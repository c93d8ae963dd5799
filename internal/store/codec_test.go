package store

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"bivoc/internal/mining"
	"bivoc/internal/voctest"
)

// pinnedWorld is the corpus the pinned encodings are taken over; its
// segment and its WAL are also what the damage tests below cut and flip.
func pinnedWorld() (docs []mining.Document, seg, wal []byte) {
	docs = voctest.NewWorld(3, 120).Docs
	seg = EncodeSegment(sealedIndex(docs))
	wal = append(append(wal, walMagic[:]...), walVersion, 0, 0, 0)
	for _, d := range docs {
		wal = appendWALRecord(wal, d)
	}
	return docs, seg, wal
}

// TestEncodersWriteThePinnedBytes: the segment and the WAL records of a
// fixed world hash to what the encoders wrote before they moved onto
// internal/wire (the constants were computed at PR 21's commit, ec586e0).
// A change to either hash is a change of on-disk format.
func TestEncodersWriteThePinnedBytes(t *testing.T) {
	_, seg, wal := pinnedWorld()
	for _, tc := range []struct {
		name string
		got  []byte
		size int
		sum  string
	}{
		{"EncodeSegment", seg, 6462, "4a44d6154fefd98efe65eee71f8688d23ba6b8553b9d40543e649236445bf427"},
		{"appendWALRecord", wal[walHeaderLen:], 10844, "4ee67869e356af57734a58fe8580f9fec4af4cbe9aadb4bd19fc3d97db1ce6b4"},
	} {
		if sum := fmt.Sprintf("%x", sha256.Sum256(tc.got)); len(tc.got) != tc.size || sum != tc.sum {
			t.Errorf("%s wrote %d bytes hashing to %s, pinned are %d bytes hashing to %s", tc.name, len(tc.got), sum, tc.size, tc.sum)
		}
	}
}

// damaged yields every proper prefix of data, then data with each single
// bit of its first 512 and last 64 bytes flipped; at is the first byte
// the damage touches.
func damaged(data []byte, try func(name string, at int, in []byte)) {
	for cut := range data {
		try(fmt.Sprintf("cut at %d", cut), cut, data[:cut:cut])
	}
	for i := range data {
		if i >= 512 && i < len(data)-64 {
			continue
		}
		for bit := range 8 {
			in := append([]byte(nil), data...)
			in[i] ^= 1 << bit
			try(fmt.Sprintf("bit %d of byte %d flipped", bit, i), i, in)
		}
	}
}

// TestDamagedSegmentIsRefused: a segment cut anywhere, or with any one
// bit of its head or tail flipped, is refused as corrupt by the
// materializing open and by the mapped reader's open — neither panics,
// neither serves it.
func TestDamagedSegmentIsRefused(t *testing.T) {
	_, seg, _ := pinnedWorld()
	if _, err := materialize("pinned", seg); err != nil {
		t.Fatal(err)
	}
	damaged(seg, func(name string, _ int, in []byte) {
		if ix, err := materialize(name, in); !IsCorrupt(err) {
			t.Errorf("%s: materialize returned %v, %v", name, ix != nil, err)
		}
		if m, err := newMapped(name, in, func([]byte) error { return nil }, NewPostingsCache(0)); !IsCorrupt(err) {
			t.Errorf("%s: newMapped returned %v, %v", name, m != nil, err)
		}
	})
}

// TestDamagedWALReplaysThePrefixBeforeTheDamage: a WAL cut anywhere, or
// with any one bit of its head or tail flipped, replays exactly the
// records that end before the damage and accounts for every byte after
// them as dropped — or, when the damage is in the header, is refused as
// corrupt. It never panics and never invents or alters a document.
func TestDamagedWALReplaysThePrefixBeforeTheDamage(t *testing.T) {
	docs, _, wal := pinnedWorld()
	ends := []int{walHeaderLen} // ends[k] is where the k-th record ends
	for _, d := range docs {
		ends = append(ends, ends[len(ends)-1]+len(appendWALRecord(nil, d)))
	}
	if got, good, dropped, err := replayWALData(wal); err != nil || !reflect.DeepEqual(got, voctest.AsStored(docs)) || int(good) != len(wal) || dropped != 0 {
		t.Fatalf("the untouched WAL replays %d documents to %d (dropped %d): %v", len(got), good, dropped, err)
	}
	damaged(wal, func(name string, at int, in []byte) {
		got, good, dropped, err := replayWALData(in)
		if len(in) == 0 { // an empty file is an empty log
			if err != nil || len(got) != 0 || good != 0 || dropped != 0 {
				t.Errorf("%s: replay returned %d documents to %d, dropped %d, %v", name, len(got), good, dropped, err)
			}
			return
		}
		if at < walHeaderLen {
			if !IsCorrupt(err) {
				t.Errorf("%s (in the header): replay returned %d documents, %v", name, len(got), err)
			}
			return
		}
		whole := 0 // records that end at or before the damage
		for whole+1 < len(ends) && ends[whole+1] <= at {
			whole++
		}
		if err != nil || int(good) != ends[whole] || int(good+dropped) != len(in) || len(got) != whole || (whole > 0 && !reflect.DeepEqual(got, voctest.AsStored(docs[:whole]))) {
			t.Errorf("%s: replayed %d documents to offset %d, dropped %d, err %v; want the %d before the damage, to %d",
				name, len(got), good, dropped, err, whole, ends[whole])
		}
	})
}
