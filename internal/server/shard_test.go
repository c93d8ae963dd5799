package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"testing"

	"bivoc/internal/mining"
	"bivoc/internal/voctest"
	"bivoc/internal/wire"
)

// frameDecoders is every decoder of the exchange — the envelope and each
// partial shape — as one function of the input: what an accepted input
// re-encodes to, and how many elements were allocated for it.
var frameDecoders = []struct {
	name   string
	decode func(in []byte) (re []byte, elems int, err error)
}{
	{"frame", func(in []byte) ([]byte, int, error) {
		f, err := ReadShardFrame(in)
		return f.Append(nil), len(f.Results), err
	}},
	{"count", partialDecoder(readCountPartial, func(p countPartial) ([]byte, int) {
		return AppendCountPartial(nil, p.total, p.counts), len(p.counts)
	})},
	{"trend", partialDecoder(readTrendPartial, func(p []mining.TrendPoint) ([]byte, int) {
		return appendTrendPartial(nil, p), len(p)
	})},
	{"concept df", partialDecoder(readConceptDFPartial, func(p []mining.ConceptCount) ([]byte, int) {
		return appendConceptDFPartial(nil, p), len(p)
	})},
	{"field values", partialDecoder(readStringsPartial, func(p []string) ([]byte, int) {
		return appendStringsPartial(nil, p), len(p)
	})},
	{"relfreq", partialDecoder(readRelFreqPartial, func(p mining.RelFreqMarginals) ([]byte, int) {
		return appendRelFreqPartial(nil, p), len(p.Concepts)
	})},
	{"assoc", partialDecoder(readAssocPartial, func(p mining.AssocMarginals) ([]byte, int) {
		n := len(p.Nver) + len(p.Nhor) + len(p.Ncell)
		for _, row := range p.Ncell {
			n += len(row)
		}
		return AppendAssocPartial(nil, p), n
	})},
	{"drilldown", partialDecoder(readDrillDownPartial(math.MaxInt), func(p drillDownPartial) ([]byte, int) {
		docs := make([]ShardDoc, len(p.docs))
		for i, d := range p.docs {
			docs[i] = ShardDoc{ID: string(d.id), JSON: d.json}
		}
		return AppendDrillDownPartial(nil, p.count, docs), len(docs)
	})},
}

func partialDecoder[T any](read func(*wire.Reader) T, encode func(T) ([]byte, int)) func([]byte) ([]byte, int, error) {
	return func(in []byte) ([]byte, int, error) {
		r := wire.NewReader(in)
		p := read(&r)
		if err := r.Done(); err != nil {
			return nil, 0, err
		}
		re, n := encode(p)
		return re, n, nil
	}
}

// frameSeeds is one well-formed input per decoder, in frameDecoders'
// order: a frame holding every partial shape, then the partials.
func frameSeeds() [][]byte {
	partials := [][]byte{
		AppendCountPartial(nil, 40, []int{7, 0, 10}),
		appendTrendPartial(nil, []mining.TrendPoint{{Time: -2, Count: 3}, {Time: 0, Count: 1}, {Time: 400, Count: 129}}),
		appendConceptDFPartial(nil, []mining.ConceptCount{{Concept: "billing", DF: 12}, {Concept: "", DF: 0}}),
		appendStringsPartial(nil, []string{"reservation", "", "walk\naway"}),
		appendRelFreqPartial(nil, mining.RelFreqMarginals{N: 90, SubsetSize: 30,
			Concepts: []mining.ConceptMarginal{{Concept: "billing", InSubset: 4, InAll: 20}, {Concept: "outage", InSubset: 0, InAll: 300}}}),
		AppendAssocPartial(nil, mining.AssocMarginals{N: 9, Nver: []int{5, 4}, Nhor: []int{3}, Ncell: [][]int{{2}, {1}}}),
		AppendDrillDownPartial(nil, 3, []ShardDoc{{ID: "doc-1", JSON: []byte(`{"id":"doc-1"}`)}, {ID: "doc-2", JSON: []byte(`{}`)}}),
	}
	frame := ShardFrame{Generation: 300, Sealed: true, Results: []ShardResult{{Status: 400, Body: []byte(`{"error":"x","status":400}`)}}}
	for _, p := range partials {
		frame.Results = append(frame.Results, ShardResult{Status: 200, Body: p})
	}
	return append([][]byte{frame.Append(nil)}, partials...)
}

// hostileInputs are the seeds' damaged forms: cut at every byte, a count
// of 2^60 where a list's length goes, trailing bytes, an unknown version,
// a flag byte that is neither 0 nor 1, a varint with a padding byte.
func hostileInputs() [][]byte {
	huge := wire.AppendUvarint(nil, 1<<60)
	out := [][]byte{
		nil,
		append([]byte{frameVersion, 1, 1}, huge...), // a frame of 2^60 results
		append(append([]byte{5}, huge...), 1, 2, 3), // a count partial of 2^60 counts
		append(append([]byte{}, huge...), 1, 2, 3),  // 2^60 trend points, concepts, strings
		append(append([]byte{1, 1}, huge...), 1, 2), // 2^60 relfreq concepts, drill-down documents
		{frameVersion + 1, 0, 0, 0},                 // unknown version
		{frameVersion, 0, 2, 0},                     // sealed flag 2
		{frameVersion, 0x80, 0x00, 0, 0},            // generation 0 spelt in two bytes
	}
	for _, seed := range frameSeeds() {
		for cut := range seed {
			out = append(out, seed[:cut])
		}
		out = append(out, append(append([]byte{}, seed...), 0))
	}
	return out
}

// FuzzShardFrame: no input makes a decoder of the exchange panic, an
// accepted input re-encodes to itself (every value has one encoding, so
// nothing is lost or invented in between), and a decoder never allocates
// more elements than the input has bytes — an announced count is checked
// against the bytes that remain before anything is made for it.
func FuzzShardFrame(f *testing.F) {
	for _, in := range append(frameSeeds(), hostileInputs()...) {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, d := range frameDecoders {
			re, elems, err := d.decode(in)
			if err != nil {
				continue
			}
			if !bytes.Equal(re, in) {
				t.Errorf("%s: %q accepted, re-encodes to %q", d.name, in, re)
			}
			if elems > len(in) {
				t.Errorf("%s: %d elements decoded from %d bytes", d.name, elems, len(in))
			}
		}
	})
}

// TestShardFrameSeeds: each seed is accepted by its own decoder and, cut
// short or with a byte to spare, refused by it — and turning an input
// down costs memory in proportion to its length, whatever count it
// announces.
func TestShardFrameSeeds(t *testing.T) {
	for i, seed := range frameSeeds() {
		d := frameDecoders[i]
		if re, _, err := d.decode(seed); err != nil || !bytes.Equal(re, seed) {
			t.Errorf("%s: seed %q: re-encoded %q, err %v", d.name, seed, re, err)
		}
		if _, _, err := d.decode(seed[:len(seed)-1]); err == nil {
			t.Errorf("%s: seed accepted without its last byte", d.name)
		}
		if _, _, err := d.decode(append(append([]byte{}, seed...), 0)); err == nil {
			t.Errorf("%s: seed accepted with a trailing byte", d.name)
		}
	}
	// None of the hand-made ones is a frame, and the empty input is
	// nothing to any decoder.
	for i, in := range hostileInputs()[:8] {
		for k, d := range frameDecoders {
			if _, _, err := d.decode(in); err == nil && (k == 0 || i == 0) {
				t.Errorf("%s: %q accepted", d.name, in)
			}
		}
	}
	const rounds = 50
	for _, in := range hostileInputs() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range rounds {
			for _, d := range frameDecoders {
				d.decode(in)
			}
		}
		runtime.ReadMemStats(&after)
		perDecode := (after.TotalAlloc - before.TotalAlloc) / (rounds * uint64(len(frameDecoders)))
		if limit := uint64(64*len(in) + 1024); perDecode > limit {
			t.Errorf("decoding %q allocates %d bytes a decoder, limit %d", in, perDecode, limit)
		}
	}
}

// TestShardFrameIsThePinnedBytes: a frame holding a refusal and one
// partial of each of the seven shapes hashes to what ShardFrame.Append and
// the partial writers wrote before they moved onto internal/wire (computed
// at PR 21's commit, ec586e0). A change to the hash is a change of what
// daemons of one fleet say to each other.
func TestShardFrameIsThePinnedBytes(t *testing.T) {
	frame := frameSeeds()[0]
	const size, pinned = 171, "33423b09552164a4dba7f11520bfd49cbb7be80e57ae4b4596a8c5321d4c1775"
	if sum := fmt.Sprintf("%x", sha256.Sum256(frame)); len(frame) != size || sum != pinned {
		t.Errorf("the frame is %d bytes hashing to %s, pinned are %d bytes hashing to %s", len(frame), sum, size, pinned)
	}
}

// TestDamagedShardFrame: that frame cut anywhere is refused. A frame
// carries no checksum, so a flipped bit may leave a well-formed frame
// saying something else; what must hold of every single-bit flip is that
// it is refused or read as exactly the bytes that arrived — decoding
// neither panics nor loses nor invents anything on the way.
func TestDamagedShardFrame(t *testing.T) {
	frame := frameSeeds()[0]
	for cut := range frame {
		if _, err := ReadShardFrame(frame[:cut:cut]); err == nil {
			t.Errorf("the frame cut at %d of %d is accepted", cut, len(frame))
		}
	}
	refused := 0
	for i := range frame {
		for bit := range 8 {
			in := append([]byte(nil), frame...)
			in[i] ^= 1 << bit
			f, err := ReadShardFrame(in)
			if err != nil {
				refused++
			} else if re := f.Append(nil); !bytes.Equal(re, in) {
				t.Errorf("bit %d of byte %d flipped: accepted, re-encodes to %q, was %q", bit, i, re, in)
			}
		}
	}
	if refused == 0 {
		t.Error("no single-bit flip of the frame is refused")
	}
}

// TestShardFrameKeepsNewlineAndEmptyBodies: a partial may end in 0x0A (a
// count of 10 in last position) or be empty, and the frame path hands it
// on as it is — through the snapshot LRU, where a JSON body's newline is
// trimmed for the batch envelope, and through the frame.
func TestShardFrameKeepsNewlineAndEmptyBodies(t *testing.T) {
	s := startServer(t, Config{Source: sliceSource(voctest.ParityDocs(20))})
	waitIngestDone(t, s)
	base := "http://" + s.Addr()
	q := BatchQuery{Endpoint: "count", Params: url.Values{"dim": {"parity=even"}}}
	want := AppendCountPartial(nil, 20, []int{10})
	if want[len(want)-1] != '\n' {
		t.Fatalf("the fixture partial %q does not end in a newline byte", want)
	}
	for _, pass := range []string{"computed", "cached"} {
		if got := postShard(t, base, q, q).Results; !bytes.Equal(got[0].Body, want) || !bytes.Equal(got[1].Body, want) {
			t.Errorf("%s count partial %q / %q, want %q", pass, got[0].Body, got[1].Body, want)
		}
	}

	// An empty partial is nothing a plan produces, but the cache and the
	// frame must not care.
	sn := s.snap.Load()
	for _, pass := range []string{"computed", "cached"} {
		cb, status, err := s.answer(sn, "empty", func(*snapshot) ([]byte, error) { return []byte{}, nil })
		if err != nil || status != http.StatusOK || cb.Plain == nil || len(cb.Plain) != 0 {
			t.Errorf("%s empty partial: %v %d %q", pass, err, status, cb.Plain)
		}
	}
	frame := ShardFrame{Generation: 1, Results: []ShardResult{{Status: 200, Body: []byte{}}, {Status: 200, Body: want}}}
	got, err := ReadShardFrame(frame.Append(nil))
	if err != nil || len(got.Results) != 2 || len(got.Results[0].Body) != 0 || !bytes.Equal(got.Results[1].Body, want) {
		t.Errorf("frame of an empty and a newline-ended body read back as %+v, %v", got, err)
	}
}

// nastyStrings are what the splices must carry exactly as encoding/json
// writes them: HTML-escaped characters, quotes and backslashes, the line
// separators JSON escapes, and bytes that are not UTF-8.
var nastyStrings = []string{"plain", "<a href=\"x\">&</a>", `back\slash "quoted"`, "line sep ", "bad\xffutf8\xc0", ""}

// TestBatchEnvelopeMatchesMarshal: the envelope appended around the
// sub-bodies is byte for byte what encoding/json makes of the same
// BatchResponse.
func TestBatchEnvelopeMatchesMarshal(t *testing.T) {
	var nasty []BatchResult
	for i, s := range nastyStrings {
		body, err := json.Marshal(ErrorResponse{Error: s, Status: 400 + i})
		if err != nil {
			t.Fatal(err)
		}
		nasty = append(nasty, BatchResult{Status: 400 + i, Body: body},
			NewBatchResult(&CachedBody{Plain: mustJSON(t, ConceptsResponse{Generation: 3, Field: s, Values: nastyStrings})}, 200, nil, FedStatus{}))
	}
	for name, resp := range map[string]BatchResponse{
		"nil results":   {Generation: 1, Sealed: true},
		"zero results":  {Generation: 1, Results: []BatchResult{}},
		"error result":  {Generation: math.MaxUint64, Sealed: true, Results: []BatchResult{NewBatchResult(nil, 500, errString(`shard 1: "results":[] & <more>`), FedStatus{Degraded: true, MissingShards: []int{0}})}},
		"nil body":      {Results: []BatchResult{{Status: 200}, {Status: 0, Body: nil}, {Status: -7, Body: json.RawMessage("null")}}},
		"degraded":      {Generation: 7, Sealed: true, Results: nasty[:2], FedStatus: FedStatus{Degraded: true, MissingShards: []int{1, 3}}},
		"nasty strings": {Generation: 7, Results: nasty},
	} {
		want, err := marshalBody(resp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := resp.Encode()
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: envelope\n got %q (%v)\nwant %q", name, got, err, want)
		}
		if name != "nil results" && cap(got) > len(got)+20*len(resp.Results) {
			t.Errorf("%s: envelope of %d bytes sits in %d", name, len(got), cap(got))
		}
	}
}

type errString string

func (e errString) Error() string { return string(e) }

// TestDrillDownSpliceMatchesMarshal: the body a coordinator assembles from
// the shards' encoded documents is byte for byte the DrillDownResponse a
// single daemon marshals over the union of their corpora.
func TestDrillDownSpliceMatchesMarshal(t *testing.T) {
	var docs []mining.Document
	for i, s := range nastyStrings {
		docs = append(docs, voctest.NewWorld(int64(i), 3).Docs...)
		for k := range docs[len(docs)-3:] {
			d := &docs[len(docs)-3+k]
			d.ID = string(rune('a'+i)) + d.ID + s
			if d.Fields == nil {
				d.Fields = map[string]string{}
			}
			d.Fields["note"] = s
			d.Fields[s] = "key"
		}
	}
	// Brackets are reserved in a dimension label, so no label can spell
	// the empty list the splice looks for; these come as close as one can.
	row, col := `"docs":`+nastyStrings[1], "f="+nastyStrings[3]+`\"docs":`
	for name, tc := range map[string]struct {
		docs  []mining.Document
		limit string
		fs    FedStatus
	}{
		"zero documents": {nil, "50", FedStatus{}},
		"limit zero":     {docs, "0", FedStatus{}},
		"all":            {docs, "50", FedStatus{}},
		"truncated":      {docs, "5", FedStatus{}},
		"degraded":       {docs, "7", FedStatus{Degraded: true, MissingShards: []int{2}}},
	} {
		t.Run(name, func(t *testing.T) {
			p, err := NewEndpoints(0).Plan("drilldown", url.Values{"row": {row}, "col": {col}, "limit": {tc.limit}})
			if err != nil {
				t.Fatal(err)
			}
			whole := fixedCell{docs: tc.docs}
			h := Head{Generation: 4, Sealed: true, FedStatus: tc.fs}
			want, err := marshalBody(p.Local(whole, h))
			if err != nil {
				t.Fatal(err)
			}
			// Three shards hold every third document each; the middle one is
			// a generation ahead, and the head takes the minimum.
			var live []ShardBody
			for k := 0; k < 3; k++ {
				var mine fixedCell
				for i := k; i < len(tc.docs); i += 3 {
					mine.docs = append(mine.docs, tc.docs[i])
				}
				part, err := p.partial(nil, mine)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, ShardBody{Shard: k, Generation: 4 + uint64(k%2), Sealed: true, Body: part})
			}
			got, err := p.Merge(live, tc.fs)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("merged drill-down body\n got %q (%v)\nwant %q", got, err, want)
			}
			if cap(got) != len(got) {
				t.Errorf("body of %d bytes sits in %d", len(got), cap(got))
			}
		})
	}
}

// fixedCell is a view whose every drill-down cell is the documents it
// holds; no other query may be asked of it.
type fixedCell struct {
	mining.Querier
	docs []mining.Document
}

func (c fixedCell) DrillDownLimit(_, _ mining.Dim, limit int) ([]mining.Document, int) {
	docs := append([]mining.Document(nil), c.docs...)
	sort.Slice(docs, func(i, j int) bool { return docs[i].ID < docs[j].ID })
	return docs[:min(len(docs), limit)], len(docs)
}
