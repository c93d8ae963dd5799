package warehouse

import (
	"slices"
	"strings"

	"bivoc/internal/phonetics"
)

// index is a secondary index specialized by MatchKind. Each kind chooses
// bucketing keys so that a noisy token and its true value share at least
// one bucket with high probability:
//
//   - MatchExact / MatchNumeric: exact string buckets.
//   - MatchName: Soundex and phone-skeleton buckets — ASR substitutes
//     similar-sounding names, which usually preserve these keys.
//   - MatchText: character trigram buckets (any shared trigram recalls
//     the row; scoring prunes false candidates).
//   - MatchDigits: digit 3-gram buckets — a partially recognized phone
//     number shares most digit trigrams with the true number.
type index struct {
	kind MatchKind
	// buckets holds every kind's but MatchText's and MatchDigits'; theirs
	// are in grams, keyed by the 3-gram's bytes packed into an integer (see
	// gramKey), so deriving a token's keys builds no strings.
	buckets map[string][]RowID
	grams   map[uint32][]RowID
}

func newIndex(kind MatchKind) *index {
	return &index{kind: kind, buckets: make(map[string][]RowID), grams: make(map[uint32][]RowID)}
}

func (ix *index) gramKeyed() bool { return ix.kind == MatchText || ix.kind == MatchDigits }

// keysFor returns the bucket keys for a value under a kind that is not
// gram-keyed.
func (ix *index) keysFor(value string) []string {
	v := strings.ToLower(strings.TrimSpace(value))
	if ix.kind != MatchName {
		return []string{v}
	}
	var keys []string
	for _, tok := range strings.Fields(v) {
		keys = append(keys, "s:"+phonetics.Soundex(tok))
		if pk := phonetics.PhoneKey(tok); pk != "" {
			keys = append(keys, "p:"+pk)
		}
	}
	if len(keys) == 0 {
		keys = []string{"s:" + phonetics.Soundex(v)}
	}
	return keys
}

// gramSource appends to dst the bytes a value's 3-gram keys are cut from:
// its digit content (MatchDigits) or its lowercase form padded to
// "##value##" (MatchText).
func (ix *index) gramSource(dst []byte, value string) []byte {
	if ix.kind == MatchDigits {
		for i := 0; i < len(value); i++ {
			if value[i] >= '0' && value[i] <= '9' {
				dst = append(dst, value[i])
			}
		}
		return dst
	}
	dst = append(dst, "##"...)
	dst = append(dst, strings.ToLower(strings.TrimSpace(value))...)
	return append(dst, "##"...)
}

// gramKey packs the first three bytes of src big-endian. A source shorter
// than three bytes (only a value with fewer than three digits is) keys on
// all it has; digits are never zero bytes, so no two sources share a key.
// The loops over a source run `i == 0 || i+3 <= len(src)`: every 3-gram,
// or the one short key of a source that has none.
func gramKey(src []byte) uint32 {
	var k uint32
	for _, c := range src[:min(3, len(src))] {
		k = k<<8 | uint32(c)
	}
	return k
}

func (ix *index) add(value string, id RowID) {
	if !ix.gramKeyed() {
		for _, k := range ix.keysFor(value) {
			ix.buckets[k] = append(ix.buckets[k], id)
		}
		return
	}
	var sb [64]byte
	src := ix.gramSource(sb[:0], value)
	for i := 0; i == 0 || i+3 <= len(src); i++ {
		k := gramKey(src[i:])
		// A repeated gram finds id already last in its bucket.
		if b := ix.grams[k]; len(b) == 0 || b[len(b)-1] != id {
			ix.grams[k] = append(b, id)
		}
	}
}

// lookupAppend appends the ids of every bucket the token keys into onto
// buf, then sorts and compacts in place so the result is duplicate-free.
// A row whose value shares several bucket keys with the token (common for
// trigram and digit-gram indexes) used to come back once per shared key,
// multiplying downstream similarity calls; deduplicating here keeps the
// multiplication out of every caller.
func (ix *index) lookupAppend(buf []RowID, token string) []RowID {
	if ix.gramKeyed() {
		var sb [64]byte
		src := ix.gramSource(sb[:0], token)
		for i := 0; i == 0 || i+3 <= len(src); i++ {
			buf = append(buf, ix.grams[gramKey(src[i:])]...)
		}
	} else {
		for _, k := range ix.keysFor(token) {
			buf = append(buf, ix.buckets[k]...)
		}
	}
	slices.Sort(buf)
	return slices.Compact(buf)
}
