package server

import (
	"cmp"
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"bivoc/internal/mining"
	"bivoc/internal/wire"
)

// The /v1 endpoint table. Each query's grammar — parameter names,
// limits, defaults, error strings, canonical cache key — is written
// here once, and so is its answer, as the four parts of a query (below):
// share, write, merge and finish. The Plan they make is run three ways:
// bivocd answers from its local segments (Plan.Local); asked by a
// coordinator over /v1/shard, it sends its partial, the mergeable share
// of the answer it holds; bivocfed adds the shards' partials up and
// finalizes once (Plan.Merge). All three end in the same finish, so a
// federated body can differ from a single-node one only in its trailing
// FedStatus.

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

// ShardBody is one live shard's partial for a plan — a 200 sub-result of
// its /v1/shard frame — under that frame's generation and sealed flag.
type ShardBody struct {
	Shard      int
	Generation uint64
	Sealed     bool
	Body       []byte
}

// errorf names the shard in an error about its partial. A shard that
// violates the exchange surfaces this way, and the coordinator answers a
// structured 500.
func (sb ShardBody) errorf(format string, args ...any) error {
	return fmt.Errorf("shard %d: %w", sb.Shard, fmt.Errorf(format, args...))
}

// decodeParts reads every live shard's partial with read. One that is
// cut short, over-announces a count or has bytes left over is an error
// naming its shard.
func decodeParts[T any](live []ShardBody, read func(*wire.Reader) T) ([]T, error) {
	parts := make([]T, len(live))
	for k, sb := range live {
		r := wire.NewReader(sb.Body)
		parts[k] = read(&r)
		if err := r.Done(); err != nil {
			return nil, sb.errorf("decoding partial: %w", err)
		}
	}
	return parts, nil
}

// Plan is one parsed, canonicalized /v1 query.
type Plan struct {
	// Key is the canonical key in the snapshot LRU, shared by the GET
	// routes and /v1/batch — a dimension queried either way lands on one
	// entry.
	Key string
	// partKey is set where Key holds what only finalizing reads (an
	// association's confidence): the key of the partial without it, so
	// that queries differing in that alone share one partial.
	partKey string

	answer answerer
}

// answerer is a query whatever its share type: the three ways a daemon
// answers a plan.
type answerer interface {
	local(v mining.Querier, h Head) any
	partial(b []byte, v mining.Querier) []byte
	merged(live []ShardBody, h Head) ([]byte, error)
}

// query is one endpoint's answer, written once as four parts over M, the
// share of it that one daemon holds:
//   - share reads M from a view: the segment walk and its merge;
//   - write appends M as the partial of a /v1/shard reply (partials.go);
//   - merge reads the live shards' partials, checks their shape against
//     the plan and adds them up;
//   - finish runs the float finalize over M and builds the response.
//
// Its methods compose them the three ways a daemon answers — bivocd
// finish(share(view)), a shard write(share(view)), a coordinator
// finish(merge(live)) — so neither daemon can finalize differently.
type query[M any] struct {
	share  func(v mining.Querier) M
	write  func(b []byte, m M) []byte
	merge  func(live []ShardBody) (M, error)
	finish func(h Head, m M) any
}

func (q query[M]) plan(key string) *Plan { return &Plan{Key: key, answer: q} }

func (q query[M]) local(v mining.Querier, h Head) any { return q.finish(h, q.share(v)) }

func (q query[M]) partial(b []byte, v mining.Querier) []byte { return q.write(b, q.share(v)) }

func (q query[M]) merged(live []ShardBody, h Head) ([]byte, error) {
	m, err := q.merge(live)
	if err != nil {
		return nil, err
	}
	return marshalBody(q.finish(h, m))
}

// sums is the merge of a share that only adds: decode every live shard's
// partial with read, then add them up.
func sums[M any](read func(*wire.Reader) M, add func(...M) M) func([]ShardBody) (M, error) {
	return func(live []ShardBody) (M, error) {
		parts, err := decodeParts(live, read)
		if err != nil {
			var zero M
			return zero, err
		}
		return add(parts...), nil
	}
}

// nonNil renders an empty list as [], never null.
func nonNil[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}

// Local answers the plan from one snapshot's view.
func (p *Plan) Local(v mining.Querier, h Head) any { return p.answer.local(v, h) }

// partialKey is the snapshot-LRU key of the plan's partial, distinct from
// the public body's (no endpoint name contains a colon).
func (p *Plan) partialKey() string { return "shard:" + cmp.Or(p.partKey, p.Key) }

// Merge renders the plan's response body from the live shards' partials
// (at least one): integers add, the float pipeline runs once over the
// sums, and the documents kept are rendered once. A partial whose
// shape disagrees with the plan is an error, never a silent under-count.
func (p *Plan) Merge(live []ShardBody, fs FedStatus) ([]byte, error) {
	h := MergedHead(fs)
	for _, sb := range live {
		h.Fold(sb.Generation, sb.Sealed)
	}
	return p.answer.merged(live, h)
}

// Endpoints is the endpoint table as one daemon serves it, bound to the
// finalize-time settings that daemon configures.
type Endpoints struct {
	confidence float64 // association confidence when a query passes none
}

// NewEndpoints resolves the default association confidence
// (mining.Confidence).
func NewEndpoints(confidence float64) Endpoints {
	return Endpoints{confidence: mining.Confidence(confidence)}
}

// endpointTable is keyed by endpoint name: the /v1 path without the
// prefix, which is also the name /v1/batch and /v1/shard sub-queries use.
var endpointTable = map[string]func(Endpoints, url.Values) (*Plan, error){
	"count":     Endpoints.count,
	"associate": Endpoints.associate,
	"relfreq":   Endpoints.relFreq,
	"drilldown": Endpoints.drillDown,
	"trend":     Endpoints.trend,
	"concepts":  Endpoints.concepts,
}

// Names lists the endpoints, sorted.
func (e Endpoints) Names() []string {
	names := make([]string, 0, len(endpointTable))
	for name := range endpointTable {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Plan parses the parameters of one query to the named endpoint. Every
// error is the caller's fault (400).
func (e Endpoints) Plan(name string, q url.Values) (*Plan, error) {
	plan, ok := endpointTable[name]
	if !ok {
		return nil, fmt.Errorf("unknown batch endpoint %q", name)
	}
	return plan(e, q)
}

// dimList is one repeated dimension parameter, parsed: the dims and
// their canonical labels (mining.(Dim).CanonicalLabel), the form
// responses echo and cache keys use. Parameter order is preserved, so
// only dimension spelling is canonicalized, not request shape.
type dimList struct {
	dims   []mining.Dim
	labels []string
}

// checkUTF8 refuses a parameter value that is not valid UTF-8: neither
// daemon could echo it in a JSON body (encoding/json turns the byte into
// U+FFFD), so it is a 400 at the one place both parse, not a label
// answered under another spelling. The value is quoted with its bytes
// escaped, so the error itself is ASCII.
func checkUTF8(param, v string) error {
	if !utf8.ValidString(v) {
		return fmt.Errorf("parameter %s: %+q is not valid UTF-8", param, v)
	}
	return nil
}

func parseDims(param string, vals []string) (dimList, error) {
	if len(vals) == 0 {
		return dimList{}, fmt.Errorf("missing required parameter %q (a dimension label, e.g. %q or %q)",
			param, "outcome=reservation", "weak start[customer intention]")
	}
	l := dimList{dims: make([]mining.Dim, len(vals)), labels: make([]string, len(vals))}
	for i, v := range vals {
		if err := checkUTF8(param, v); err != nil {
			return dimList{}, err
		}
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
	return category, checkUTF8("category", category)
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
	return query[countPartial]{
		share: func(v mining.Querier) countPartial {
			m := countPartial{total: v.Len(), counts: make([]int, len(dl.dims))}
			for i, d := range dl.dims {
				m.counts[i] = v.Count(d)
			}
			return m
		},
		write: func(b []byte, m countPartial) []byte { return AppendCountPartial(b, m.total, m.counts) },
		merge: func(live []ShardBody) (countPartial, error) {
			parts, err := decodeParts(live, readCountPartial)
			if err != nil {
				return countPartial{}, err
			}
			m := countPartial{counts: make([]int, len(dl.dims))}
			for k, part := range parts {
				if len(part.counts) != len(m.counts) {
					return countPartial{}, live[k].errorf("%d counts for %d dims", len(part.counts), len(m.counts))
				}
				m.total += part.total
				for j, n := range part.counts {
					m.counts[j] += n
				}
			}
			return m, nil
		},
		finish: func(h Head, m countPartial) any {
			return CountResponse{Generation: h.Generation, Sealed: h.Sealed,
				Total: m.total, Dims: dl.labels, Counts: m.counts, FedStatus: h.FedStatus}
		},
	}.plan(cacheKey("count", dl.labels...)), nil
}

// /v1/associate?row=<label>&...&col=<label>&...[&confidence=0.95] — the
// §IV.D.2 two-dimensional association table. Shards return integer
// marginals; the Wilson float pipeline runs once over their sum, which is
// the only place confidence is read.
func (e Endpoints) associate(q url.Values) (*Plan, error) {
	rows, cols, err := rowsCols(q)
	if err != nil {
		return nil, err
	}
	confidence := e.confidence
	if cs := q.Get("confidence"); cs != "" {
		confidence, err = strconv.ParseFloat(cs, 64)
		if err != nil || mining.Confidence(confidence) != confidence { // not in (0,1)
			return nil, fmt.Errorf("confidence must be a number in (0,1), got %q", cs)
		}
	}
	rowKey, colKey := strings.Join(rows.labels, "\x01"), strings.Join(cols.labels, "\x01")
	p := query[mining.AssocMarginals]{
		share: func(v mining.Querier) mining.AssocMarginals { return v.AssocMarginals(rows.dims, cols.dims) },
		write: AppendAssocPartial,
		merge: func(live []ShardBody) (mining.AssocMarginals, error) {
			parts, err := decodeParts(live, readAssocPartial)
			if err != nil {
				return mining.AssocMarginals{}, err
			}
			for k, part := range parts {
				if !part.Fits(len(rows.dims), len(cols.dims)) {
					return mining.AssocMarginals{}, live[k].errorf("association marginals are not %d×%d", len(rows.dims), len(cols.dims))
				}
			}
			return mining.MergeAssocMarginals(parts...), nil
		},
		finish: func(h Head, m mining.AssocMarginals) any {
			tbl := mining.FinalizeAssoc(rows.dims, cols.dims, confidence, m)
			return AssociateResponse{Generation: h.Generation, Sealed: h.Sealed, Confidence: tbl.Confidence,
				Rows: rows.labels, Cols: cols.labels, Cells: tbl.Cells, FedStatus: h.FedStatus}
		},
	}.plan(cacheKey("associate", rowKey, colKey, strconv.FormatFloat(confidence, 'g', -1, 64)))
	p.partKey = cacheKey("associate", rowKey, colKey)
	return p, nil
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
	return query[mining.RelFreqMarginals]{
		share: func(v mining.Querier) mining.RelFreqMarginals { return v.RelFreqMarginals(category, featured) },
		write: appendRelFreqPartial,
		merge: sums(readRelFreqPartial, mining.MergeRelFreqMarginals),
		finish: func(h Head, m mining.RelFreqMarginals) any {
			return RelFreqResponse{Generation: h.Generation, Sealed: h.Sealed, Category: category,
				Featured: label, Rows: nonNil(mining.FinalizeRelFreq(m)), FedStatus: h.FedStatus}
		},
	}.plan(cacheKey("relfreq", category, label)), nil
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
	// A shard sends its documents as records, not rendered: the
	// coordinator keeps the cell's first limit of all the shards sent and
	// renders only those, as bivocd renders its own.
	return query[cellDocs]{
		share: func(v mining.Querier) cellDocs {
			docs, count := v.DrillDownLimit(rows.dims[0], cols.dims[0], limit)
			return cellDocs{count: count, docs: docs[:min(len(docs), limit)]}
		},
		write: func(b []byte, m cellDocs) []byte { return AppendDrillDownPartial(b, m.count, m.docs) },
		merge: func(live []ShardBody) (cellDocs, error) { return mergeDrillDownPartials(live, limit) },
		finish: func(h Head, m cellDocs) any {
			return drillDownBody{head: h, row: rows.labels[0], col: cols.labels[0],
				count: m.count, truncated: m.count > limit, docs: m.docs}
		},
	}.plan(cacheKey("drilldown", rows.labels[0], cols.labels[0], strconv.Itoa(limit))), nil
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
	return query[[]mining.TrendPoint]{
		share: func(v mining.Querier) []mining.TrendPoint { return v.Trend(dl.dims[0]) },
		write: appendTrendPartial,
		merge: sums(readTrendPartial, mining.MergeTrends),
		finish: func(h Head, pts []mining.TrendPoint) any {
			return TrendResponse{Generation: h.Generation, Sealed: h.Sealed, Dim: dl.labels[0],
				Points: nonNil(pts), Slope: mining.TrendSlope(pts), FedStatus: h.FedStatus}
		},
	}.plan(cacheKey("trend", dl.labels[0])), nil
}

// /v1/concepts?category=<cat> | ?field=<name> — the vocabulary of a
// concept category (document-frequency order) or a structured field
// (sorted values); the discovery endpoint analysts use to find dimension
// labels to query with. A category's order needs its merged document
// frequencies, so its partial is the counted form; field values union
// order-free.
func (e Endpoints) concepts(q url.Values) (*Plan, error) {
	category, field := q.Get("category"), q.Get("field")
	if (category == "") == (field == "") {
		return nil, fmt.Errorf("pass exactly one of %q or %q", "category", "field")
	}
	if err := cmp.Or(checkUTF8("category", category), checkUTF8("field", field)); err != nil {
		return nil, err
	}
	respond := func(h Head, values []string) any {
		return ConceptsResponse{Generation: h.Generation, Sealed: h.Sealed,
			Category: category, Field: field, Values: nonNil(values), FedStatus: h.FedStatus}
	}
	key := cacheKey("concepts", category, field)
	if category != "" {
		return query[[]mining.ConceptCount]{
			share:  func(v mining.Querier) []mining.ConceptCount { return v.ConceptDF(category) },
			write:  appendConceptDFPartial,
			merge:  sums(readConceptDFPartial, mining.MergeConceptCounts),
			finish: func(h Head, m []mining.ConceptCount) any { return respond(h, mining.ConceptNames(m)) },
		}.plan(key), nil
	}
	return query[[]string]{
		share:  func(v mining.Querier) []string { return v.FieldValues(field) },
		write:  appendStringsPartial,
		merge:  sums(readStringsPartial, mining.MergeFieldValues),
		finish: respond,
	}.plan(key), nil
}
