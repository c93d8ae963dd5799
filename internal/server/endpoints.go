package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"

	"bivoc/internal/mining"
)

// The /v1 endpoint table. Each query's grammar — parameter names,
// limits, defaults, error strings, canonical cache key — is written
// here once and parsed into a Plan that either daemon can run: bivocd
// answers it from its local segments (Plan.Local), bivocfed scatters its
// shard-side form and folds the replies (Plan.Merge). Both ways end in
// the same response constructor, so a federated body can differ from a
// single-node one only in its trailing FedStatus.

// FedStatus closes a federated response that some shards did not
// contribute to: Degraded is set and MissingShards lists their indexes in
// shard order. Both fields vanish from healthy (and all single-node)
// bodies, which is what keeps those byte-identical across the daemons.
type FedStatus struct {
	Degraded      bool  `json:"degraded,omitempty"`
	MissingShards []int `json:"missing_shards,omitempty"`
}

// Head is what a response says about the data behind it: the snapshot
// generation and sealed flag every body opens with, and the federation
// status it closes with.
type Head struct {
	Generation uint64
	Sealed     bool
	FedStatus
}

// MergedHead starts the head of a response merged from shard replies;
// Fold every live reply into it.
func MergedHead(fs FedStatus) Head {
	return Head{Generation: math.MaxUint64, Sealed: true, FedStatus: fs}
}

// Fold lowers h to the conservative pair over one more shard: the
// minimum generation ("every shard reflects at least this much ingest"),
// sealed only if every shard is.
func (h *Head) Fold(gen uint64, sealed bool) {
	h.Generation = min(h.Generation, gen)
	h.Sealed = h.Sealed && sealed
}

// ShardBody is one live shard's 200 reply to a plan's shard-side query.
type ShardBody struct {
	Shard int
	Body  []byte
}

// decode unmarshals the reply into v. A shard that violates the wire
// contract surfaces as a "shard i: …" error, which the coordinator
// answers as a structured 500.
func (sb ShardBody) decode(v any) error {
	if err := json.Unmarshal(sb.Body, v); err != nil {
		return sb.errorf("decoding response: %w", err)
	}
	return nil
}

func (sb ShardBody) errorf(format string, args ...any) error {
	return fmt.Errorf("shard %d: %w", sb.Shard, fmt.Errorf(format, args...))
}

// Plan is one parsed, canonicalized /v1 query.
type Plan struct {
	// Key is the canonical cache key, shared by the snapshot LRU, the
	// coordinator's result cache, the GET routes and /v1/batch — a
	// dimension queried any of those ways lands on one entry.
	Key string
	// ShardEndpoint and ShardParams are the query a coordinator sends each
	// shard (associate asks for marginals/assoc, and so on). Empty on the
	// shard-side wire endpoints themselves.
	ShardEndpoint string
	ShardParams   url.Values

	local func(v mining.Querier, h Head) any
	merge func(live []ShardBody, h *Head) (any, error)
}

// Local answers the plan from one snapshot's view.
func (p *Plan) Local(v mining.Querier, h Head) any { return p.local(v, h) }

// Merge answers the plan from the live shards' replies to its shard-side
// query (at least one): integer marginals add, and the float pipeline
// runs once over the sums. A reply whose shape disagrees with the plan
// is an error, never a silent under-count.
func (p *Plan) Merge(live []ShardBody, fs FedStatus) (any, error) {
	h := MergedHead(fs)
	return p.merge(live, &h)
}

// Endpoints is the endpoint table as one daemon serves it, bound to the
// finalize-time settings that daemon configures.
type Endpoints struct {
	confidence float64 // association confidence when a query passes none
	wire       bool    // also serve the shard-side marginals/* endpoints
}

// NewEndpoints resolves the default association confidence (0.95 unless
// it lies in (0,1)). wire selects the shard-side marginal endpoints in
// addition to the six public ones.
func NewEndpoints(confidence float64, wire bool) Endpoints {
	if confidence <= 0 || confidence >= 1 {
		confidence = 0.95
	}
	return Endpoints{confidence: confidence, wire: wire}
}

// endpointTable is keyed by endpoint name: the /v1 path without the
// prefix, which is also the name /v1/batch sub-queries use.
var endpointTable = map[string]struct {
	plan func(Endpoints, url.Values) (*Plan, error)
	wire bool
}{
	"count":              {plan: Endpoints.count},
	"associate":          {plan: Endpoints.associate},
	"relfreq":            {plan: Endpoints.relFreq},
	"drilldown":          {plan: Endpoints.drillDown},
	"trend":              {plan: Endpoints.trend},
	"concepts":           {plan: Endpoints.concepts},
	"marginals/concepts": {plan: Endpoints.conceptDF, wire: true},
	"marginals/relfreq":  {plan: Endpoints.relFreqMarginals, wire: true},
	"marginals/assoc":    {plan: Endpoints.assocMarginals, wire: true},
}

// Names lists the endpoints this daemon serves, sorted.
func (e Endpoints) Names() []string {
	var names []string
	for name, ep := range endpointTable {
		if e.wire || !ep.wire {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Plan parses the parameters of one query to the named endpoint. Every
// error is the caller's fault (400).
func (e Endpoints) Plan(name string, q url.Values) (*Plan, error) {
	ep, ok := endpointTable[name]
	if !ok || (ep.wire && !e.wire) {
		return nil, fmt.Errorf("unknown batch endpoint %q", name)
	}
	return ep.plan(e, q)
}

// dimList is one repeated dimension parameter, parsed: the dims and
// their canonical labels (mining.(Dim).CanonicalLabel), the form
// responses echo and cache keys use. Parameter order is preserved, so
// only dimension spelling is canonicalized, not request shape.
type dimList struct {
	dims   []mining.Dim
	labels []string
}

func parseDims(param string, vals []string) (dimList, error) {
	if len(vals) == 0 {
		return dimList{}, fmt.Errorf("missing required parameter %q (a dimension label, e.g. %q or %q)",
			param, "outcome=reservation", "weak start[customer intention]")
	}
	l := dimList{dims: make([]mining.Dim, len(vals)), labels: make([]string, len(vals))}
	for i, v := range vals {
		d, err := mining.ParseDim(v)
		if err != nil {
			return dimList{}, fmt.Errorf("parameter %s: %w", param, err)
		}
		l.dims[i] = d
		l.labels[i] = d.CanonicalLabel()
	}
	return l, nil
}

func rowsCols(q url.Values) (rows, cols dimList, err error) {
	if rows, err = parseDims("row", q["row"]); err == nil {
		cols, err = parseDims("col", q["col"])
	}
	return rows, cols, err
}

// categoryFeatured parses the parameters of a relevancy analysis.
func categoryFeatured(q url.Values) (category string, featured mining.Dim, label string, err error) {
	if category, err = requiredCategory(q); err != nil {
		return "", mining.Dim{}, "", err
	}
	l, err := parseDims("featured", q["featured"])
	if err != nil {
		return "", mining.Dim{}, "", err
	}
	if len(l.dims) > 1 {
		return "", mining.Dim{}, "", fmt.Errorf("featured must be a single dimension (use a ∧-conjunction for compound subsets)")
	}
	return category, l.dims[0], l.labels[0], nil
}

func requiredCategory(q url.Values) (string, error) {
	category := q.Get("category")
	if category == "" {
		return "", fmt.Errorf("missing required parameter %q (a concept category)", "category")
	}
	return category, nil
}

func cacheKey(endpoint string, parts ...string) string {
	return endpoint + "\x00" + strings.Join(parts, "\x00")
}

// /v1/count?dim=<label>[&dim=<label>...] — document counts for one or
// more dimensions plus the total; both sum across disjoint shards.
func (e Endpoints) count(q url.Values) (*Plan, error) {
	dl, err := parseDims("dim", q["dim"])
	if err != nil {
		return nil, err
	}
	respond := func(h Head, total int, counts []int) any {
		return CountResponse{Generation: h.Generation, Sealed: h.Sealed,
			Total: total, Dims: dl.labels, Counts: counts, FedStatus: h.FedStatus}
	}
	return &Plan{
		Key:           cacheKey("count", dl.labels...),
		ShardEndpoint: "count",
		ShardParams:   url.Values{"dim": q["dim"]},
		local: func(v mining.Querier, h Head) any {
			counts := make([]int, len(dl.dims))
			for i, d := range dl.dims {
				counts[i] = v.Count(d)
			}
			return respond(h, v.Len(), counts)
		},
		merge: func(live []ShardBody, h *Head) (any, error) {
			total, counts := 0, make([]int, len(dl.dims))
			for _, sb := range live {
				var sr CountResponse
				if err := sb.decode(&sr); err != nil {
					return nil, err
				}
				h.Fold(sr.Generation, sr.Sealed)
				if len(sr.Counts) != len(counts) {
					return nil, sb.errorf("%d counts for %d dims", len(sr.Counts), len(counts))
				}
				total += sr.Total
				for j, n := range sr.Counts {
					counts[j] += n
				}
			}
			return respond(*h, total, counts), nil
		},
	}, nil
}

// /v1/associate?row=<label>&...&col=<label>&...[&confidence=0.95] — the
// §IV.D.2 two-dimensional association table. Shards return integer
// marginals; the Wilson float pipeline runs once over their sum.
func (e Endpoints) associate(q url.Values) (*Plan, error) {
	rows, cols, err := rowsCols(q)
	if err != nil {
		return nil, err
	}
	confidence := e.confidence
	if cs := q.Get("confidence"); cs != "" {
		confidence, err = strconv.ParseFloat(cs, 64)
		if err != nil || confidence <= 0 || confidence >= 1 {
			return nil, fmt.Errorf("confidence must be a number in (0,1), got %q", cs)
		}
	}
	respond := func(h Head, tbl *mining.AssocTable) any {
		return AssociateResponse{Generation: h.Generation, Sealed: h.Sealed, Confidence: tbl.Confidence,
			Rows: rows.labels, Cols: cols.labels, Cells: assocCellsJSON(tbl), FedStatus: h.FedStatus}
	}
	return &Plan{
		Key: cacheKey("associate", strings.Join(rows.labels, "\x01"), strings.Join(cols.labels, "\x01"),
			strconv.FormatFloat(confidence, 'g', -1, 64)),
		ShardEndpoint: "marginals/assoc",
		ShardParams:   url.Values{"row": q["row"], "col": q["col"]},
		local: func(v mining.Querier, h Head) any {
			return respond(h, v.AssociateN(rows.dims, cols.dims, confidence, 0))
		},
		merge: func(live []ShardBody, h *Head) (any, error) {
			parts := make([]mining.AssocMarginals, len(live))
			for k, sb := range live {
				var sr AssocMarginalsResponse
				if err := sb.decode(&sr); err != nil {
					return nil, err
				}
				h.Fold(sr.Generation, sr.Sealed)
				if !sr.Marginals.Fits(len(rows.dims), len(cols.dims)) {
					return nil, sb.errorf("association marginals are not %d×%d", len(rows.dims), len(cols.dims))
				}
				parts[k] = sr.Marginals
			}
			return respond(*h, mining.FinalizeAssoc(rows.dims, cols.dims, confidence,
				mining.MergeAssocMarginals(parts...))), nil
		},
	}, nil
}

// /v1/relfreq?category=<cat>&featured=<label> — the §IV.D.1 relevancy
// analysis: category concept densities inside the featured subset versus
// the whole collection. Marginals are keyed by concept, so they merge
// whatever vocabulary each shard holds.
func (e Endpoints) relFreq(q url.Values) (*Plan, error) {
	category, featured, label, err := categoryFeatured(q)
	if err != nil {
		return nil, err
	}
	respond := func(h Head, rel []mining.Relevance) any {
		return RelFreqResponse{Generation: h.Generation, Sealed: h.Sealed,
			Category: category, Featured: label, Rows: relevancesJSON(rel), FedStatus: h.FedStatus}
	}
	return &Plan{
		Key:           cacheKey("relfreq", category, label),
		ShardEndpoint: "marginals/relfreq",
		ShardParams:   url.Values{"category": {category}, "featured": q["featured"]},
		local: func(v mining.Querier, h Head) any {
			return respond(h, v.RelativeFrequency(category, featured))
		},
		merge: func(live []ShardBody, h *Head) (any, error) {
			parts := make([]mining.RelFreqMarginals, len(live))
			for k, sb := range live {
				var sr RelFreqMarginalsResponse
				if err := sb.decode(&sr); err != nil {
					return nil, err
				}
				h.Fold(sr.Generation, sr.Sealed)
				parts[k] = sr.Marginals
			}
			return respond(*h, mining.FinalizeRelFreq(mining.MergeRelFreqMarginals(parts...))), nil
		},
	}, nil
}

// /v1/drilldown?row=<label>&col=<label>[&limit=N] — Figure 4's
// cell-to-documents navigation. limit bounds the returned documents
// (default 50); Count is always the full cell size.
func (e Endpoints) drillDown(q url.Values) (*Plan, error) {
	rows, cols, err := rowsCols(q)
	if err != nil {
		return nil, err
	}
	if len(rows.dims) > 1 || len(cols.dims) > 1 {
		return nil, fmt.Errorf("drilldown takes exactly one row and one col dimension")
	}
	limit := 50
	if ls := q.Get("limit"); ls != "" {
		limit, err = strconv.Atoi(ls)
		if err != nil || limit < 0 {
			return nil, fmt.Errorf("limit must be a non-negative integer, got %q", ls)
		}
	}
	// docs holds the cell's first documents in ID order, at least limit of
	// them when the cell has that many.
	respond := func(h Head, count int, docs []DocumentJSON) any {
		return DrillDownResponse{Generation: h.Generation, Sealed: h.Sealed,
			Row: rows.labels[0], Col: cols.labels[0], Count: count, Truncated: count > limit,
			Docs: docs[:min(len(docs), limit)], FedStatus: h.FedStatus}
	}
	return &Plan{
		Key:           cacheKey("drilldown", rows.labels[0], cols.labels[0], strconv.Itoa(limit)),
		ShardEndpoint: "drilldown",
		ShardParams:   url.Values{"row": q["row"], "col": q["col"], "limit": {strconv.Itoa(limit)}},
		local: func(v mining.Querier, h Head) any {
			docs, count := v.DrillDownLimit(rows.dims[0], cols.dims[0], limit)
			return respond(h, count, documentsJSON(docs))
		},
		// Document IDs are unique across shards, so the first limit of the
		// whole cell are among the shards' own first limit, re-sorted.
		merge: func(live []ShardBody, h *Head) (any, error) {
			count, docs := 0, []DocumentJSON{}
			for _, sb := range live {
				var sr DrillDownResponse
				if err := sb.decode(&sr); err != nil {
					return nil, err
				}
				h.Fold(sr.Generation, sr.Sealed)
				count += sr.Count
				docs = append(docs, sr.Docs...)
			}
			slices.SortFunc(docs, func(a, b DocumentJSON) int { return strings.Compare(a.ID, b.ID) })
			return respond(*h, count, docs), nil
		},
	}, nil
}

// /v1/trend?dim=<label> — per-time-bucket counts plus the fitted slope
// (documents per bucket). Buckets sum across shards; the slope is fitted
// once over the merged series.
func (e Endpoints) trend(q url.Values) (*Plan, error) {
	dl, err := parseDims("dim", q["dim"])
	if err != nil {
		return nil, err
	}
	if len(dl.dims) > 1 {
		return nil, fmt.Errorf("trend takes exactly one dim")
	}
	respond := func(h Head, pts []mining.TrendPoint) any {
		return TrendResponse{Generation: h.Generation, Sealed: h.Sealed, Dim: dl.labels[0],
			Points: trendPointsJSON(pts), Slope: mining.TrendSlope(pts), FedStatus: h.FedStatus}
	}
	return &Plan{
		Key:           cacheKey("trend", dl.labels[0]),
		ShardEndpoint: "trend",
		ShardParams:   url.Values{"dim": q["dim"]},
		local: func(v mining.Querier, h Head) any {
			return respond(h, v.Trend(dl.dims[0]))
		},
		merge: func(live []ShardBody, h *Head) (any, error) {
			parts := make([][]mining.TrendPoint, len(live))
			for k, sb := range live {
				var sr TrendResponse
				if err := sb.decode(&sr); err != nil {
					return nil, err
				}
				h.Fold(sr.Generation, sr.Sealed)
				parts[k] = make([]mining.TrendPoint, len(sr.Points))
				for i, p := range sr.Points {
					parts[k][i] = mining.TrendPoint(p)
				}
			}
			return respond(*h, mining.MergeTrends(parts...)), nil
		},
	}, nil
}

// /v1/concepts?category=<cat> | ?field=<name> — the vocabulary of a
// concept category (document-frequency order) or a structured field
// (sorted values); the discovery endpoint analysts use to find dimension
// labels to query with. A category's order needs its merged document
// frequencies, so shards are asked for the counted form; field values
// union order-free from the public endpoint.
func (e Endpoints) concepts(q url.Values) (*Plan, error) {
	category, field := q.Get("category"), q.Get("field")
	if (category == "") == (field == "") {
		return nil, fmt.Errorf("pass exactly one of %q or %q", "category", "field")
	}
	respond := func(h Head, values []string) any {
		if values == nil {
			values = []string{}
		}
		return ConceptsResponse{Generation: h.Generation, Sealed: h.Sealed,
			Category: category, Field: field, Values: values, FedStatus: h.FedStatus}
	}
	p := &Plan{Key: cacheKey("concepts", category, field)}
	if category != "" {
		p.ShardEndpoint, p.ShardParams = "marginals/concepts", url.Values{"category": {category}}
		p.local = func(v mining.Querier, h Head) any { return respond(h, v.ConceptsInCategory(category)) }
		p.merge = func(live []ShardBody, h *Head) (any, error) {
			parts := make([][]mining.ConceptCount, len(live))
			for k, sb := range live {
				var sr ConceptDFResponse
				if err := sb.decode(&sr); err != nil {
					return nil, err
				}
				h.Fold(sr.Generation, sr.Sealed)
				parts[k] = sr.Concepts
			}
			return respond(*h, mining.ConceptNames(mining.MergeConceptCounts(parts...))), nil
		}
		return p, nil
	}
	p.ShardEndpoint, p.ShardParams = "concepts", url.Values{"field": {field}}
	p.local = func(v mining.Querier, h Head) any { return respond(h, v.FieldValues(field)) }
	p.merge = func(live []ShardBody, h *Head) (any, error) {
		parts := make([][]string, len(live))
		for k, sb := range live {
			var sr ConceptsResponse
			if err := sb.decode(&sr); err != nil {
				return nil, err
			}
			h.Fold(sr.Generation, sr.Sealed)
			parts[k] = sr.Values
		}
		return respond(*h, mining.MergeFieldValues(parts...)), nil
	}
	return p, nil
}

// Marginal endpoints — the shard-side federation wire. Each returns the
// integer half of a split §IV.D operation (see internal/mining/merge.go),
// so they carry no floats at all and have no shard-side form of their own.

// /v1/marginals/concepts?category=<cat> — concept document frequencies
// for one category (the counted form of /v1/concepts).
func (e Endpoints) conceptDF(q url.Values) (*Plan, error) {
	category, err := requiredCategory(q)
	if err != nil {
		return nil, err
	}
	return &Plan{Key: cacheKey("marginals/concepts", category), local: func(v mining.Querier, h Head) any {
		return ConceptDFResponse{Generation: h.Generation, Sealed: h.Sealed,
			Category: category, Concepts: v.ConceptDF(category)}
	}}, nil
}

// /v1/marginals/relfreq?category=<cat>&featured=<label> — the integer
// marginals of a relevancy analysis over this shard's documents.
func (e Endpoints) relFreqMarginals(q url.Values) (*Plan, error) {
	category, featured, label, err := categoryFeatured(q)
	if err != nil {
		return nil, err
	}
	return &Plan{Key: cacheKey("marginals/relfreq", category, label), local: func(v mining.Querier, h Head) any {
		return RelFreqMarginalsResponse{Generation: h.Generation, Sealed: h.Sealed,
			Category: category, Featured: label, Marginals: v.RelFreqMarginals(category, featured)}
	}}, nil
}

// /v1/marginals/assoc?row=<label>&...&col=<label>&... — the integer
// marginals of an association table over this shard's documents
// (confidence is a finalize-time input, so it does not appear here).
func (e Endpoints) assocMarginals(q url.Values) (*Plan, error) {
	rows, cols, err := rowsCols(q)
	if err != nil {
		return nil, err
	}
	key := cacheKey("marginals/assoc", strings.Join(rows.labels, "\x01"), strings.Join(cols.labels, "\x01"))
	return &Plan{Key: key, local: func(v mining.Querier, h Head) any {
		return AssocMarginalsResponse{Generation: h.Generation, Sealed: h.Sealed,
			Rows: rows.labels, Cols: cols.labels, Marginals: v.AssocMarginals(rows.dims, cols.dims)}
	}}, nil
}
