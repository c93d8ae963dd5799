package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"testing"

	"bivoc/internal/annotate"
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
		b := wire.AppendInt(wire.AppendInt(nil, p.count), len(p.docs))
		for _, d := range p.docs {
			b = wire.AppendBytes(b, d.record)
		}
		return b, len(p.docs)
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
		AppendDrillDownPartial(nil, 3, []mining.Document{
			{ID: "doc-1", Time: -3, Concepts: []annotate.Concept{{Category: "issue", Canonical: "billing", Start: 2, End: 4}},
				Fields: map[string]string{"outcome": "reservation"}},
			{ID: "doc-2"},
		}),
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

// TestShardFrameIsThePinnedBytes: a reply frame holding a refusal and one
// partial of each of the seven shapes, and a request frame holding every
// request seed's sub-queries, hash to what the frame and partial writers
// write since drill-down partials carry document records and requests are
// frames. A change to a hash is a change of what daemons of one fleet say
// to each other.
func TestShardFrameIsThePinnedBytes(t *testing.T) {
	var queries []BatchQuery
	for _, q := range requestSeedQueries() {
		queries = append(queries, q...)
	}
	for _, c := range []struct {
		name   string
		frame  []byte
		size   int
		pinned string
	}{
		{"reply", frameSeeds()[0], 197, "75fb996885bac45debf1d2132eb4a085f5813e2a6134cf1dc6ebe2d2269f030f"},
		{"request", AppendShardRequest(nil, queries), 194, "20d26eec70dcb048ce78553dd712d91b64d81ae7e7bda9db50022153bf928384"},
	} {
		if sum := fmt.Sprintf("%x", sha256.Sum256(c.frame)); len(c.frame) != c.size || sum != c.pinned {
			t.Errorf("the %s frame is %d bytes hashing to %s, pinned are %d bytes hashing to %s", c.name, len(c.frame), sum, c.size, c.pinned)
		}
	}
}

// requestSeedQueries are the sub-queries of the well-formed request
// frames FuzzShardRequest starts from: a GET's batch of one, a batch with
// a query of no parameters, one with a parameter of no values and one
// naming no endpoint, and names and values JSON escapes or cannot carry.
func requestSeedQueries() [][]BatchQuery {
	return [][]BatchQuery{
		{{Endpoint: "count", Params: url.Values{"dim": {"outcome=reservation", "billing[issue]"}}}},
		{{Endpoint: "concepts"}, {Endpoint: "drilldown", Params: url.Values{"row": {"issue"}, "col": {"agent=A2"}, "limit": {}}}, {}},
		{{Endpoint: "nope", Params: url.Values{"": {""}, "<&>": nastyStrings, "\xff": {" "}}}},
	}
}

// requestInputs are the request seeds, then their damaged forms: cut at
// every byte and with a byte to spare, and by hand a count of 2^60 where
// a list's length goes, no queries, one past MaxBatchQueries, an unknown
// version, names out of order and repeated, a count with a padding byte.
func requestInputs() (seeds, hostile [][]byte) {
	for _, queries := range requestSeedQueries() {
		seeds = append(seeds, AppendShardRequest(nil, queries))
	}
	huge := wire.AppendUvarint(nil, 1<<60)
	over := wire.AppendInt([]byte{frameVersion}, MaxBatchQueries+1)
	for range MaxBatchQueries + 1 {
		over = append(over, 0, 0)
	}
	hostile = [][]byte{
		nil,
		append([]byte{frameVersion}, huge...), // 2^60 queries
		append([]byte{frameVersion, 1, 0}, huge...), // 2^60 parameters
		{frameVersion, 0},           // no queries
		over,                        // one query past MaxBatchQueries
		{frameVersion + 1, 1, 0, 0}, // unknown version
		{frameVersion, 1, 0, 2, 1, 'b', 0, 1, 'a', 0}, // names out of order
		{frameVersion, 1, 0, 2, 1, 'a', 0, 1, 'a', 0}, // a name repeated
		{frameVersion, 0x81, 0x00, 0, 0},              // one query, counted in two bytes
	}
	for _, seed := range seeds {
		for cut := range seed {
			hostile = append(hostile, seed[:cut])
		}
		hostile = append(hostile, append(append([]byte{}, seed...), 0))
	}
	return seeds, hostile
}

// FuzzShardRequest: no input makes the request decoder panic, and an
// accepted one re-encodes to itself — the decoder takes only the one
// encoding AppendShardRequest writes of the sub-queries it returns.
func FuzzShardRequest(f *testing.F) {
	seeds, hostile := requestInputs()
	for _, in := range append(seeds, hostile...) {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		queries, err := ReadShardRequest(in)
		if err != nil {
			return
		}
		if re := AppendShardRequest(nil, queries); !bytes.Equal(re, in) {
			t.Errorf("%q accepted, re-encodes to %q", in, re)
		}
	})
}

// TestShardRequestSeeds: each request seed decodes to its sub-queries and
// re-encodes to itself; every damaged form is refused, at a cost in
// memory in proportion to its length, whatever count it announces.
func TestShardRequestSeeds(t *testing.T) {
	seeds, hostile := requestInputs()
	for i, seed := range seeds {
		queries, err := ReadShardRequest(seed)
		if err != nil || !bytes.Equal(AppendShardRequest(nil, queries), seed) {
			t.Errorf("seed %q: decoded %+v, err %v", seed, queries, err)
		}
		for k, q := range queries {
			want := requestSeedQueries()[i][k]
			if q.Endpoint != want.Endpoint || len(q.Params) != len(want.Params) {
				t.Errorf("seed %d, query %d: %+v, sent %+v", i, k, q, want)
			}
			for name, values := range want.Params {
				if got, ok := q.Params[name]; !ok || !sameList(got, values) {
					t.Errorf("seed %d, query %d, parameter %q: %q, sent %q", i, k, name, got, values)
				}
			}
		}
	}
	const rounds = 50
	for _, in := range hostile {
		if queries, err := ReadShardRequest(in); err == nil {
			t.Errorf("%q accepted as %+v", in, queries)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range rounds {
			ReadShardRequest(in)
		}
		runtime.ReadMemStats(&after)
		if perDecode, limit := (after.TotalAlloc-before.TotalAlloc)/rounds, uint64(64*len(in)+1024); perDecode > limit {
			t.Errorf("decoding %q allocates %d bytes, limit %d", in, perDecode, limit)
		}
	}
}

// TestShardRequestCostsNoMoreThanItsBatch: a request frame of distinct
// short names and no values — the densest a frame gets — is read at about
// the cost /v1/batch's JSON decoder pays for a MaxBatchBytes body of such
// names: the most names such a body could hold are accepted and one more
// is refused, and a 3 MiB frame of them is refused before its map is made.
func TestShardRequestCostsNoMoreThanItsBatch(t *testing.T) {
	frame := func(names int) []byte { // one query, no endpoint, names of 3 bytes
		b := wire.AppendInt([]byte{frameVersion, 1, 0}, names)
		for k := range names {
			b = append(b, 3, byte(k>>16), byte(k>>8), byte(k), 0)
		}
		return b
	}
	most := MaxBatchBytes / (jsonLeastName + jsonLeast("abc"))
	hostile := frame((maxShardRequestBytes - 8) / 5)
	if len(hostile) > maxShardRequestBytes {
		t.Fatalf("the hostile frame is %d bytes, past the %d a shard reads", len(hostile), maxShardRequestBytes)
	}
	full := frame(most)
	if _, err := ReadShardRequest(full); err != nil {
		t.Errorf("%d names: %v", most, err)
	}
	for _, in := range [][]byte{frame(most + 1), hostile} {
		if _, err := ReadShardRequest(in); err == nil {
			t.Errorf("a frame of %d bytes is accepted", len(in))
		}
	}

	const alphabet = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz-_"
	body := []byte(`{"queries":[{"params":{`)
	for k := 0; len(body)+len(`"abc":[],}}]}`) <= MaxBatchBytes; k++ {
		if k > 0 {
			body = append(body, ',')
		}
		body = append(body, '"', alphabet[k>>12&63], alphabet[k>>6&63], alphabet[k&63], '"', ':', '[', ']')
	}
	body = append(body, "}}]}"...)
	allocs := func(read func()) uint64 {
		const rounds = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range rounds {
			read()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / rounds
	}
	batch := allocs(func() {
		r := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
		if _, err := DecodeBatch(httptest.NewRecorder(), r); err != nil {
			t.Fatalf("the %d-byte batch: %v", len(body), err)
		}
	})
	accepted, refused := allocs(func() { ReadShardRequest(full) }), allocs(func() { ReadShardRequest(hostile) })
	t.Logf("a %d-byte batch decodes in %d bytes; %d names in %d, %d bytes refused in %d",
		len(body), batch, most, accepted, len(hostile), refused)
	if accepted > batch || refused > 4096 {
		t.Errorf("a %d-byte batch decodes in %d bytes, but a frame of %d names in %d and a refused one of %d bytes in %d",
			len(body), batch, most, accepted, len(hostile), refused)
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

// TestDrillDownSpliceMatchesMarshal: the drill-down body a coordinator
// renders from the shards' document records, strings JSON escapes or
// cannot carry among them, is byte for byte the DrillDownResponse a single
// daemon marshals over the union of their corpora; and spliced into a
// /v1/batch envelope by BatchResponse.Encode, beside the single daemon's
// body, it makes exactly what encoding/json makes of the envelope.
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
				live = append(live, ShardBody{Shard: k, Generation: 4 + uint64(k%2), Sealed: true, Body: p.answer.partial(nil, mine)})
			}
			got, err := p.Merge(live, tc.fs)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("merged drill-down body\n got %q (%v)\nwant %q", got, err, want)
			}
			env := BatchResponse{Generation: 4, Sealed: true, FedStatus: tc.fs, Results: []BatchResult{
				NewBatchResult(&CachedBody{Plain: got}, http.StatusOK, nil, tc.fs),
				NewBatchResult(&CachedBody{Plain: want}, http.StatusOK, nil, FedStatus{}),
			}}
			wantEnv, err := marshalBody(env)
			if err != nil {
				t.Fatal(err)
			}
			if gotEnv, err := env.Encode(); err != nil || !bytes.Equal(gotEnv, wantEnv) {
				t.Errorf("envelope of the drill-down bodies\n got %q (%v)\nwant %q", gotEnv, err, wantEnv)
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
