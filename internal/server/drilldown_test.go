package server

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"

	"bivoc/internal/annotate"
	"bivoc/internal/mining"
)

// drillDownOracle renders a drill-down body the way encoding/json does:
// the DrillDownResponse of DocumentJSON copies, a nil Fields map as {}
// and nil concepts as [], through json.Encoder (marshalBody's framing).
func drillDownOracle(t *testing.T, d drillDownBody) []byte {
	t.Helper()
	resp := DrillDownResponse{Generation: d.head.Generation, Sealed: d.head.Sealed, Row: d.row, Col: d.col,
		Count: d.count, Truncated: d.truncated, Docs: make([]DocumentJSON, len(d.docs)), FedStatus: d.head.FedStatus}
	for i, doc := range d.docs {
		concepts := make([]ConceptJSON, len(doc.Concepts))
		for j, c := range doc.Concepts {
			concepts[j] = ConceptJSON{Category: c.Category, Canonical: c.Canonical}
		}
		fields := doc.Fields
		if fields == nil {
			fields = map[string]string{}
		}
		resp.Docs[i] = DocumentJSON{ID: doc.ID, Fields: fields, Time: doc.Time, Concepts: concepts}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDrillDownBody holds the appended drill-down body to encoding/json:
// marshalBody of a drillDownBody, and json.Marshal of it, must equal the
// oracle's rendering of the same response, over fuzzed IDs, field keys
// and values, concepts, times, counts, the truncated flag and a degraded
// head with missing shards. fields picks the Fields map: nil, empty, or
// that many entries; concepts picks nil or that many concepts; missing,
// when nonzero, makes the head degraded with that many missing shards.
func FuzzDrillDownBody(f *testing.F) {
	for _, s := range []string{"a<b", "a>b", "a&b", `say "hi"`, `a\b`, "\x7f", "\x00\x01\t\n\x1f", "line\u2028para\u2029", "\xff\xfe", "plain-id-7"} {
		f.Add(s, s, s, s, int64(-3), uint64(9), 250, true, uint8(3), uint8(2), uint8(0))
	}
	f.Add("doc-1", "k", "v", "c", int64(0), uint64(0), 0, false, uint8(1), uint8(0), uint8(0)) // an empty map, nil concepts
	f.Add("doc-2", "k", "v", "c", int64(7), uint64(1), 2, true, uint8(0), uint8(1), uint8(2))  // a nil map, degraded
	f.Fuzz(func(t *testing.T, id, key, value, concept string, tm int64, gen uint64, count int, truncated bool, fields, concepts, missing uint8) {
		doc := mining.Document{ID: id, Time: int(tm)}
		if fields > 0 {
			doc.Fields = map[string]string{}
			for i := range int(fields-1) % 6 {
				doc.Fields[key+strconv.Itoa(i%3)+value[:i%(len(value)+1)]] = value + key[:i%(len(key)+1)]
			}
		}
		for i := range int(concepts) % 5 {
			doc.Concepts = append(doc.Concepts, annotate.Concept{Category: concept, Canonical: value + strconv.Itoa(i)})
		}
		body := drillDownBody{head: Head{Generation: gen, Sealed: truncated != (gen%2 == 0)}, row: concept, col: key + "=" + value,
			count: count, truncated: truncated, docs: []mining.Document{doc, {ID: value, Fields: doc.Fields}}}
		if missing > 0 {
			body.head.FedStatus = FedStatus{Degraded: true}
			for s := range int(missing) % 4 {
				body.head.MissingShards = append(body.head.MissingShards, s*2)
			}
		}
		want := drillDownOracle(t, body)
		got, err := marshalBody(body)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("marshalBody of the drill-down body drifted from encoding/json:\n got  %q\n want %q", got, want)
		}
		if viaJSON, err := json.Marshal(body); err != nil || !bytes.Equal(append(viaJSON, '\n'), want) {
			t.Fatalf("json.Marshal of the drill-down body = %q, %v; want %q", viaJSON, err, want)
		}
	})
}
