package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"

	"bivoc/internal/mining"
	"bivoc/internal/server"
)

// tally counts checks made and checks failed, and remembers the first
// failure so that a wrong run says what was wrong.
type tally struct {
	attempted, failed int
	first             error
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.fail(format, args...)
	}
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.first == nil {
		t.first = fmt.Errorf(format, args...)
	}
}

func (t *tally) add(attempted, failed int, what string) {
	t.attempted += attempted
	t.failed += failed
	if failed > 0 && t.first == nil {
		t.first = fmt.Errorf("%d of %d operations failed in %s", failed, attempted, what)
	}
}

// generationField is the one place where two correct daemons over the
// same documents differ: each counts its own publishes.
var generationField = regexp.MustCompile(`^\{"generation":\d+,`)

// canonical strips the generation and the trailing newline a GET body
// carries and a batch sub-body does not.
func canonical(body []byte) []byte {
	return generationField.ReplaceAll(bytes.TrimSuffix(body, []byte("\n")), []byte("{"))
}

// fetchPlain GETs or POSTs one op and returns the decompressed body of a 200.
func fetchPlain(c *client, base string, o op) ([]byte, error) {
	r, err := c.do(base, o)
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("%s%s: status %d", base, o.path, r.status)
	}
	return r.plain()
}

// batchBodies POSTs qs as /v1/batch requests of size and returns each sub-body.
func batchBodies(c *client, base string, qs []query, size int) ([][]byte, error) {
	var out [][]byte
	for i := 0; i < len(qs); i += size {
		group := qs[i:min(i+size, len(qs))]
		body, err := fetchPlain(c, base, op{path: "/v1/batch", body: batchBody(group), n: len(group)})
		if err != nil {
			return nil, err
		}
		var env server.BatchResponse
		if err := json.Unmarshal(body, &env); err != nil {
			return nil, fmt.Errorf("decoding batch envelope: %w", err)
		}
		if len(env.Results) != len(group) {
			return nil, fmt.Errorf("batch of %d answered %d results", len(group), len(env.Results))
		}
		for _, sub := range env.Results {
			if sub.Status != http.StatusOK {
				return nil, fmt.Errorf("batch sub-query: status %d: %s", sub.Status, sub.Body)
			}
			out = append(out, sub.Body)
		}
	}
	return out, nil
}

// gate is the verification every sealed-corpus workload passes before
// its warm-up, untimed. For each sampled query the mono GET body is the
// reference: the mono batch sub-body, the fed GET body and the fed batch
// sub-body must equal it byte for byte (generation aside), and every
// /v1/count must equal Count on the monolithic oracle index. mono or fleet
// may be nil when the workload does not boot it.
func gate(t *tally, mono, fleet *target, oracle *mining.Index, qs []query, z sizes) {
	c := newClient()
	defer closeAll([]*client{c})
	if mono != nil {
		segs, _ := mono.mono.SegmentInfo()
		t.check(len(segs) == z.segments, "mono target serves %d segments, want %d", len(segs), z.segments)
	}
	views := map[string][][]byte{} // how each path answered every sampled query
	for _, tg := range []struct {
		name string
		tg   *target
	}{{"mono", mono}, {"fed", fleet}} {
		if tg.tg == nil {
			continue
		}
		gets := make([][]byte, len(qs))
		for i, q := range qs {
			body, err := fetchPlain(c, tg.tg.base, op{path: q.path(), n: 1})
			if err != nil {
				t.check(false, "%s GET: %v", tg.name, err)
			}
			gets[i] = body
		}
		views[tg.name+" GET"] = gets
		subs, err := batchBodies(c, tg.tg.base, qs, z.batch)
		if err != nil {
			t.check(false, "%s batch: %v", tg.name, err)
			subs = make([][]byte, len(qs))
		}
		views[tg.name+" batch"] = subs
	}
	refName := "mono GET"
	if mono == nil {
		refName = "fed GET"
	}
	ref := views[refName]
	for name, bodies := range views {
		if name == refName {
			continue
		}
		for i, q := range qs {
			t.check(ref[i] != nil && bytes.Equal(canonical(bodies[i]), canonical(ref[i])),
				"%s body differs from the reference for %s", name, q.path())
		}
	}
	for i, q := range qs {
		if q.Endpoint != "count" || ref[i] == nil {
			continue
		}
		var cr server.CountResponse
		if err := json.Unmarshal(ref[i], &cr); err != nil {
			t.check(false, "decoding %s: %v", q.path(), err)
			continue
		}
		ok := cr.Total == oracle.Len() && len(cr.Counts) == len(q.Params["dim"])
		for j, label := range q.Params["dim"] {
			d, err := mining.ParseDim(label)
			ok = ok && err == nil && j < len(cr.Counts) && cr.Counts[j] == oracle.Count(d)
		}
		t.check(ok, "%s disagrees with the monolithic index", q.path())
	}
}
