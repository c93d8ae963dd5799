package load

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"

	"bivoc/internal/server"
)

// Vocab is a live label vocabulary pulled from a daemon's /v1/concepts
// endpoint: the canonical concepts of each category and the values of
// each structured field. Queries synthesized from it exercise the label
// grammar with dims the target actually indexes, so a realistic mix
// returns real (non-empty, non-400) answers.
type Vocab struct {
	Categories map[string][]string `json:"categories"`
	Fields     map[string][]string `json:"fields"`
}

// DiscoverVocab queries /v1/concepts for each named category and field,
// keeping the ones the target knows about. It fails only when nothing
// at all resolves — a fleet that knows none of the labels cannot be
// load-tested meaningfully.
func DiscoverVocab(client *http.Client, base string, categories, fields []string) (Vocab, error) {
	if client == nil {
		client = &http.Client{}
	}
	v := Vocab{Categories: map[string][]string{}, Fields: map[string][]string{}}
	fetch := func(param, name string) ([]string, error) {
		resp, err := client.Get(base + "/v1/concepts?" + param + "=" + url.QueryEscape(name))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, nil
		}
		var cr struct {
			Values []string `json:"values"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			return nil, err
		}
		return cr.Values, nil
	}
	for _, c := range categories {
		values, err := fetch("category", c)
		if err != nil {
			return Vocab{}, fmt.Errorf("load: discovering category %q: %w", c, err)
		}
		if len(values) > 0 {
			v.Categories[c] = values
		}
	}
	for _, f := range fields {
		values, err := fetch("field", f)
		if err != nil {
			return Vocab{}, fmt.Errorf("load: discovering field %q: %w", f, err)
		}
		if len(values) > 0 {
			v.Fields[f] = values
		}
	}
	if len(v.Categories) == 0 && len(v.Fields) == 0 {
		return Vocab{}, fmt.Errorf("load: target knows none of the requested categories %v or fields %v", categories, fields)
	}
	return v, nil
}

// SynthesizeQueries builds a deterministic pool of n mixed queries from
// the vocabulary: counts (single dims and ∧-conjunctions), trends,
// association tables, relative frequencies, drill-downs, and concept
// listings, weighted toward the cheap count/trend traffic a dashboard
// generates. The pool is distinct under the daemon's own canonical cache
// key (server.Plan.Key), so cycling a pool larger than a result cache
// misses it every time, however the labels were spelled. A vocabulary too
// small to yield n distinct queries is an error.
func SynthesizeQueries(v Vocab, n int, seed int64) ([]QuerySpec, error) {
	cats := sortedKeys(v.Categories)
	flds := sortedKeys(v.Fields)
	if len(cats) == 0 && len(flds) == 0 {
		return nil, fmt.Errorf("load: empty vocabulary")
	}
	rng := rand.New(rand.NewSource(seed))

	conceptLabel := func() string {
		c := cats[rng.Intn(len(cats))]
		vals := v.Categories[c]
		return vals[rng.Intn(len(vals))] + "[" + c + "]"
	}
	fieldLabel := func() string {
		f := flds[rng.Intn(len(flds))]
		vals := v.Fields[f]
		return f + "=" + vals[rng.Intn(len(vals))]
	}
	dim := func() string {
		switch {
		case len(flds) == 0:
			return conceptLabel()
		case len(cats) == 0:
			return fieldLabel()
		case rng.Intn(2) == 0:
			return conceptLabel()
		default:
			return fieldLabel()
		}
	}

	eps := server.NewEndpoints(0)
	seen := make(map[string]bool, n)
	out := make([]QuerySpec, 0, n)
	// A draw that repeats a key already in the pool is thrown away; a
	// vocabulary that keeps repeating itself has run out of queries.
	for draws := 0; len(out) < n; draws++ {
		if draws >= 50*n {
			return nil, fmt.Errorf("load: the discovered vocabulary yields only %d distinct queries in %d draws, %d wanted: lower -pool or name more -categories and -fields", len(out), draws, n)
		}
		var q QuerySpec
		switch pick := rng.Intn(100); {
		case pick < 30: // multi-dim count
			dims := make([]string, 1+rng.Intn(4))
			for i := range dims {
				dims[i] = dim()
			}
			q = QuerySpec{Endpoint: "count", Params: url.Values{"dim": dims}}
		case pick < 45: // conjunction count
			q = QuerySpec{Endpoint: "count", Params: url.Values{"dim": {dim() + " ∧ " + dim()}}}
		case pick < 60: // trend
			q = QuerySpec{Endpoint: "trend", Params: url.Values{"dim": {dim()}}}
		case pick < 75 && len(cats) > 0 && len(flds) > 0: // association table
			row := make([]string, 2+rng.Intn(2))
			for i := range row {
				row[i] = conceptLabel()
			}
			col := make([]string, 2+rng.Intn(2))
			for i := range col {
				col[i] = fieldLabel()
			}
			params := url.Values{"row": row, "col": col}
			if rng.Intn(3) == 0 {
				params.Set("confidence", "0.99")
			}
			q = QuerySpec{Endpoint: "associate", Params: params}
		case pick < 85 && len(cats) > 0 && len(flds) > 0: // relfreq
			q = QuerySpec{Endpoint: "relfreq", Params: url.Values{
				"category": {cats[rng.Intn(len(cats))]},
				"featured": {fieldLabel()},
			}}
		case pick < 95 && len(cats) > 0 && len(flds) > 0: // drilldown
			params := url.Values{"row": {conceptLabel()}, "col": {fieldLabel()}}
			if rng.Intn(2) == 0 {
				params.Set("limit", strconv.Itoa(5+rng.Intn(20)))
			}
			q = QuerySpec{Endpoint: "drilldown", Params: params}
		default: // concepts listing
			if len(cats) > 0 && (len(flds) == 0 || rng.Intn(2) == 0) {
				q = QuerySpec{Endpoint: "concepts", Params: url.Values{"category": {cats[rng.Intn(len(cats))]}}}
			} else {
				q = QuerySpec{Endpoint: "concepts", Params: url.Values{"field": {flds[rng.Intn(len(flds))]}}}
			}
		}
		p, err := eps.Plan(q.Endpoint, url.Values(q.Params))
		if err != nil {
			return nil, fmt.Errorf("load: synthesized a query the daemon would reject: %w", err)
		}
		if !seen[p.Key] {
			seen[p.Key] = true
			out = append(out, q)
		}
	}
	return out, nil
}

// sortedKeys returns m's keys in order — deterministic pools need
// deterministic iteration.
func sortedKeys(m map[string][]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
