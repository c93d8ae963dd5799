package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"

	"bivoc/internal/core"
	"bivoc/internal/mining"
)

// sizes fixes how much work each workload does. The full sizes are the
// benchmark; the smoke sizes exist so the tests can run every workload,
// with verification and tracing, in a few seconds.
type sizes struct {
	callsPerDay, days int // serving corpus: callsPerDay*days documents
	segments          int // sealed segments of the mono target
	pool              int // distinct queries in the miss pool
	panel             int // hot panel: the first panel pool entries
	gate              int // pool queries the verification gate samples
	batch             int // sub-queries per /v1/batch POST
	hotCycles         int // mono_hot: cycles of the panel in one window
	warmOps           int // ops issued before the first window; a whole pool cycle or more than the cache holds, so the warm-up leaves no hit behind for mono_miss
	setups            int // times an untraced run sets up; setup_s is the median
	traceOps          int // ops in the traced sample
	ingestPerDay      int // ingest job: ingestPerDay*days documents
	ingestSwap        int // ingest job: publish every this many documents
	ingestPanel       int // ingest job: pool queries the probers cycle
	vocScale          float64
	vocWarmScale      float64
	probeDocs         int // documents per store/mining/annotate probe
}

var fullSizes = sizes{
	callsPerDay: 1000, days: 40, segments: 8,
	pool: 2000, panel: 64, gate: 128, batch: 32,
	hotCycles: 256, warmOps: 512, setups: 3, traceOps: 256,
	ingestPerDay: 300, ingestSwap: 500, ingestPanel: 400,
	vocScale: 1, vocWarmScale: 0.5,
	probeDocs: 5000,
}

var smokeSizes = sizes{
	callsPerDay: 50, days: 40, segments: 8,
	pool: 400, panel: 64, gate: 16, batch: 32,
	hotCycles: 4, warmOps: 400, setups: 1, traceOps: 32,
	ingestPerDay: 50, ingestSwap: 100, ingestPanel: 64,
	vocScale: 0.25, vocWarmScale: 0.1,
	probeDocs: 500,
}

func (z sizes) docs() int      { return z.callsPerDay * z.days }
func (z sizes) swapEvery() int { return z.docs() / z.segments }

// The label vocabulary the queries draw on: the categories and fields
// the call pipeline indexes.
var (
	vocabCategories = []string{core.CatIntent, core.CatPlace, core.CatVehicle, core.CatValue, core.CatDiscount}
	vocabFields     = []string{"outcome", "agent", "trained"}
)

// vocabCallsPerDay sizes the small corpus an ingest job reads its
// vocabulary from before the daemon it will query has any documents.
const vocabCallsPerDay = 50

// analysisConfig is the call-analysis configuration every corpus in the
// benchmark comes from: reference transcripts, world seeded by seed.
func analysisConfig(seed int64, callsPerDay, days int) core.CallAnalysisConfig {
	cfg := core.DefaultCallAnalysisConfig()
	cfg.UseASR = false
	cfg.World.Seed = uint64(seed)
	cfg.World.CallsPerDay = callsPerDay
	cfg.World.Days = days
	return cfg
}

// buildCorpus runs the real call pipeline and reads the documents back
// in index order, together with the monolithic index that serves as the
// oracle for counts.
func buildCorpus(seed int64, callsPerDay, days int) ([]mining.Document, *mining.Index, error) {
	ca, err := core.RunCallAnalysis(analysisConfig(seed, callsPerDay, days))
	if err != nil {
		return nil, nil, fmt.Errorf("building corpus: %w", err)
	}
	docs := make([]mining.Document, ca.Index.Len())
	for i := range docs {
		docs[i] = ca.Index.Doc(i)
	}
	return docs, ca.Index, nil
}

// query is one /v1 query in endpoint+params form. It renders as a GET
// or as one sub-query of a /v1/batch POST.
type query struct {
	Endpoint string              `json:"endpoint"`
	Params   map[string][]string `json:"params"`
}

func (q query) path() string { return "/v1/" + q.Endpoint + "?" + url.Values(q.Params).Encode() }

// mixBlock is the pool's traffic mix, fixed per block of 20 so that the
// share of each query kind is the same at every seed and in every prefix
// a window replays: 30% multi-dim counts, 15% conjunction counts, 15%
// trends, 15% association tables, 10% relative frequencies, 10%
// drill-downs, 5% concept listings.
var mixBlock = []string{
	"count", "count", "count", "count", "count", "count",
	"countand", "countand", "countand",
	"trend", "trend", "trend",
	"associate", "associate", "associate",
	"relfreq", "relfreq",
	"drilldown", "drilldown",
	"concepts",
}

// synthesizePool builds n distinct queries from the oracle's vocabulary.
// The benchmark owns this generator (it does not call internal/load) so
// that no change to the program can change the benchmark's inputs.
func synthesizePool(oracle *mining.Index, n int, seed int64) ([]query, error) {
	type labelled struct {
		name   string
		values []string
	}
	var cats, flds []labelled
	for _, c := range vocabCategories {
		if v := oracle.ConceptsInCategory(c); len(v) > 0 {
			cats = append(cats, labelled{c, v})
		}
	}
	for _, f := range vocabFields {
		if v := oracle.FieldValues(f); len(v) > 0 {
			flds = append(flds, labelled{f, v})
		}
	}
	if len(cats) == 0 || len(flds) == 0 {
		return nil, fmt.Errorf("corpus indexes no known category or field")
	}
	rng := rand.New(rand.NewSource(seed))
	// Every choice is drawn without replacement from a shuffled deck that
	// is reshuffled when it runs out, not independently: any few hundred
	// consecutive queries then use every field value, concept and table
	// shape about equally often, so the work in a window depends little on
	// the seed although the queries do.
	decks := map[string][]int{}
	draw := func(deck string, n int) int {
		d := decks[deck]
		if len(d) == 0 {
			d = rng.Perm(n)
		}
		decks[deck] = d[1:]
		return d[0]
	}
	concept := func() string {
		c := cats[draw("category", len(cats))]
		return c.values[draw("concept "+c.name, len(c.values))] + "[" + c.name + "]"
	}
	field := func() string {
		f := flds[draw("field", len(flds))]
		return f.name + "=" + f.values[draw("value "+f.name, len(f.values))]
	}
	dim := func() string {
		if draw("dim", 2) == 0 {
			return concept()
		}
		return field()
	}
	// conj is a conjunction in the order the daemon's cache key sorts it
	// into, of two different dims, so that distinct URLs are distinct
	// cache keys.
	conj := func() string {
		a, b := dim(), dim()
		for b == a {
			b = dim()
		}
		if b < a {
			a, b = b, a
		}
		return a + " ∧ " + b
	}
	gen := func(kind string) query {
		switch kind {
		case "count":
			dims := make([]string, 1+draw("count dims", 4))
			for i := range dims {
				dims[i] = dim()
			}
			return query{"count", url.Values{"dim": dims}}
		case "countand":
			return query{"count", url.Values{"dim": {conj()}}}
		case "trend":
			if draw("trend", 2) == 0 {
				return query{"trend", url.Values{"dim": {conj()}}}
			}
			return query{"trend", url.Values{"dim": {dim()}}}
		case "associate":
			row := make([]string, 2+draw("rows", 2))
			for i := range row {
				row[i] = concept()
			}
			col := make([]string, 2+draw("cols", 2))
			for i := range col {
				col[i] = field()
			}
			p := url.Values{"row": row, "col": col}
			if draw("confidence", 3) == 0 {
				p.Set("confidence", "0.99")
			}
			return query{"associate", p}
		case "relfreq":
			return query{"relfreq", url.Values{"category": {cats[draw("relfreq category", len(cats))].name}, "featured": {field()}}}
		case "drilldown":
			p := url.Values{"row": {concept()}, "col": {field()}}
			if draw("limited", 2) == 0 {
				p.Set("limit", strconv.Itoa(5+draw("limit", 20)))
			}
			return query{"drilldown", p}
		default:
			if draw("listing", 2) == 0 {
				return query{"concepts", url.Values{"category": {cats[draw("listed category", len(cats))].name}}}
			}
			return query{"concepts", url.Values{"field": {flds[draw("listed field", len(flds))].name}}}
		}
	}
	seen := make(map[string]bool, n)
	out := make([]query, 0, n)
	block := make([]string, len(mixBlock))
	for len(out) < n {
		copy(block, mixBlock)
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			// A kind whose space is exhausted (there are only eight concept
			// listings) gives its slot to a multi-dim count.
			q, ok := query{}, false
			for try := 0; try < 20 && !ok; try++ {
				q = gen(kind)
				ok = !seen[q.path()]
			}
			for !ok {
				q = gen("count")
				ok = !seen[q.path()]
			}
			seen[q.path()] = true
			out = append(out, q)
		}
	}
	return out[:n], nil
}

// op is one request of a closed loop: a GET path or a batch POST body,
// counting for n operations.
type op struct {
	path string
	body []byte // nil → GET
	n    int
}

func getOps(qs []query) []op {
	ops := make([]op, len(qs))
	for i, q := range qs {
		ops[i] = op{path: q.path(), n: 1}
	}
	return ops
}

// batchOps groups consecutive queries into /v1/batch POSTs of size each;
// a trailing partial group is dropped so every op counts the same.
func batchOps(qs []query, size int) []op {
	var ops []op
	for i := 0; i+size <= len(qs); i += size {
		ops = append(ops, op{path: "/v1/batch", body: batchBody(qs[i : i+size]), n: size})
	}
	return ops
}

func batchBody(qs []query) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(struct {
		Queries []query `json:"queries"`
	}{qs}); err != nil {
		panic(err) // strings and slices of strings always marshal
	}
	return buf.Bytes()
}

// sample picks n queries spread evenly over the pool.
func sample(pool []query, n int) []query {
	if n >= len(pool) {
		return pool
	}
	out := make([]query, n)
	for i := range out {
		out[i] = pool[i*len(pool)/n]
	}
	return out
}
