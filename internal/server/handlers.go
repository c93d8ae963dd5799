package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"

	"bivoc/internal/mining"
	"bivoc/internal/pipeline"
	"bivoc/internal/store"
)

// Response types — the wire schema of the /v1 API on both daemons. Every
// response opens with the generation and sealed flag of the data it was
// computed from — one snapshot on bivocd; the minimum generation and the
// AND of sealed over the live shards on bivocfed, whose full per-shard
// vector rides GenerationHeader — so clients can detect swaps and
// correlate answers, and closes with a FedStatus that only a degraded
// federated answer fills in. Dimensions are echoed in canonical form
// (mining.(Dim).CanonicalLabel), which is also the form cache keys use.
// An association's cells, a report's rows and a trend's points are
// mining's own results, whose JSON tags are this schema. A drill-down's
// documents are not: their field order and empty fields differ from
// mining.Document's, so a drill-down body appends its JSON straight from
// the documents (drillDownBody), and DrillDownResponse with DocumentJSON
// is the schema a client decodes that body into.

// CountResponse answers /v1/count.
type CountResponse struct {
	Generation uint64   `json:"generation"`
	Sealed     bool     `json:"sealed"`
	Total      int      `json:"total"`
	Dims       []string `json:"dims"`
	Counts     []int    `json:"counts"`
	FedStatus
}

// AssociateResponse answers /v1/associate.
type AssociateResponse struct {
	Generation uint64          `json:"generation"`
	Sealed     bool            `json:"sealed"`
	Confidence float64         `json:"confidence"`
	Rows       []string        `json:"rows"`
	Cols       []string        `json:"cols"`
	Cells      [][]mining.Cell `json:"cells"`
	FedStatus
}

// RelFreqResponse answers /v1/relfreq.
type RelFreqResponse struct {
	Generation uint64             `json:"generation"`
	Sealed     bool               `json:"sealed"`
	Category   string             `json:"category"`
	Featured   string             `json:"featured"`
	Rows       []mining.Relevance `json:"rows"`
	FedStatus
}

// ConceptJSON is one extracted concept of a drilled-down document.
type ConceptJSON struct {
	Category  string `json:"category"`
	Canonical string `json:"canonical"`
}

// DocumentJSON is one indexed document in a drill-down response.
type DocumentJSON struct {
	ID       string            `json:"id"`
	Fields   map[string]string `json:"fields"`
	Time     int               `json:"time"`
	Concepts []ConceptJSON     `json:"concepts"`
}

// DrillDownResponse answers /v1/drilldown.
type DrillDownResponse struct {
	Generation uint64         `json:"generation"`
	Sealed     bool           `json:"sealed"`
	Row        string         `json:"row"`
	Col        string         `json:"col"`
	Count      int            `json:"count"`
	Truncated  bool           `json:"truncated"`
	Docs       []DocumentJSON `json:"docs"`
	FedStatus
}

// drillDownBody is what a drill-down's finish returns: the
// DrillDownResponse it stands for, rendered by appendJSON byte for byte
// as encoding/json renders that response from DocumentJSON copies, but
// read straight from the documents. A document without fields or
// concepts says {} and [], never null: the heap holds whichever map its
// source built and the store decodes no fields to a nil one, and the two
// must render alike.
type drillDownBody struct {
	head      Head
	row, col  string
	count     int
	truncated bool
	docs      []mining.Document
}

// MarshalJSON renders the body for encoding/json (a test's oracle
// marshals what Plan.Local returns): the bytes marshalBody writes.
func (d drillDownBody) MarshalJSON() ([]byte, error) { return d.appendJSON(nil), nil }

// appendJSON appends the body in DrillDownResponse's field order.
func (d drillDownBody) appendJSON(b []byte) []byte {
	b = strconv.AppendUint(append(b, `{"generation":`...), d.head.Generation, 10)
	b = strconv.AppendBool(append(b, `,"sealed":`...), d.head.Sealed)
	b = appendJSONString(append(b, `,"row":`...), d.row)
	b = appendJSONString(append(b, `,"col":`...), d.col)
	b = strconv.AppendInt(append(b, `,"count":`...), int64(d.count), 10)
	b = strconv.AppendBool(append(b, `,"truncated":`...), d.truncated)
	b = append(b, `,"docs":[`...)
	for i, doc := range d.docs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendDocumentJSON(b, doc)
	}
	b = append(b, ']')
	if d.head.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if len(d.head.MissingShards) > 0 {
		b = append(b, `,"missing_shards":[`...)
		for i, s := range d.head.MissingShards {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(s), 10)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendDocumentJSON appends a document as DocumentJSON renders: fields
// in encoding/json's map order (keys sorted byte-wise), concepts in
// document order.
func appendDocumentJSON(b []byte, d mining.Document) []byte {
	b = appendJSONString(append(b, `{"id":`...), d.ID)
	b = append(b, `,"fields":{`...)
	var spare [8]string
	keys := spare[:0]
	for k := range d.Fields {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(append(appendJSONString(b, k), ':'), d.Fields[k])
	}
	b = strconv.AppendInt(append(b, `},"time":`...), int64(d.Time), 10)
	b = append(b, `,"concepts":[`...)
	for i, c := range d.Concepts {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(append(b, `{"category":`...), c.Category)
		b = appendJSONString(append(b, `,"canonical":`...), c.Canonical)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// appendJSONString appends s as encoding/json writes a string under
// marshalBody (HTML escaping on). A string of printable ASCII that needs
// no escape goes between quotes as it is; any other — <, >, &, control
// bytes, U+2028, invalid UTF-8 — is written by encoding/json itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// TrendResponse answers /v1/trend.
type TrendResponse struct {
	Generation uint64              `json:"generation"`
	Sealed     bool                `json:"sealed"`
	Dim        string              `json:"dim"`
	Points     []mining.TrendPoint `json:"points"`
	Slope      float64             `json:"slope"`
	FedStatus
}

// ConceptsResponse answers /v1/concepts: the vocabulary of a concept
// category (by document frequency) or of a structured field (sorted).
type ConceptsResponse struct {
	Generation uint64   `json:"generation"`
	Sealed     bool     `json:"sealed"`
	Category   string   `json:"category,omitempty"`
	Field      string   `json:"field,omitempty"`
	Values     []string `json:"values"`
	FedStatus
}

// HealthResponse answers /healthz.
type HealthResponse struct {
	Status       string `json:"status"`
	Generation   uint64 `json:"generation"`
	Sealed       bool   `json:"sealed"`
	Docs         int    `json:"docs"`
	IngestError  string `json:"ingest_error,omitempty"`
	PersistError string `json:"persist_error,omitempty"`
}

// CacheStatsJSON is the cache section of /statsz.
type CacheStatsJSON struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Size     int    `json:"size"`
	Capacity int    `json:"capacity"`
}

// MemoryStatsJSON is the memory section of /statsz: the Go heap the
// daemon is actually paying for, next to the mapped-segment bytes the
// kernel can reclaim under pressure — the two numbers whose ratio is
// the point of -mmap serving. GoMemLimitBytes echoes GOMEMLIMIT when
// one is set.
type MemoryStatsJSON struct {
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	HeapInuseBytes  uint64 `json:"heap_inuse_bytes"`
	NumGC           uint32 `json:"num_gc"`
	GoMemLimitBytes int64  `json:"go_mem_limit_bytes,omitempty"`
	MappedBytes     int64  `json:"mapped_bytes,omitempty"`
}

// SegmentsJSON is the segment section of /statsz: the live immutable
// segments the current snapshot fans queries in across, and how the
// background compactor has been keeping their number bounded.
type SegmentsJSON struct {
	Count       int    `json:"count"`
	Docs        []int  `json:"docs"`
	MaxSegments int    `json:"max_segments"`
	Compactions uint64 `json:"compactions"`
}

// StatszResponse answers /statsz: snapshot generation, segment layout,
// cache counters, the ingest pipeline's per-stage stats (the JSON tags
// of pipeline.StageStats), and — when persistence is on — the store's
// own Stats.
type StatszResponse struct {
	Generation  uint64                `json:"generation"`
	Sealed      bool                  `json:"sealed"`
	Docs        int                   `json:"docs"`
	Segments    SegmentsJSON          `json:"segments"`
	Cache       CacheStatsJSON        `json:"cache"`
	Serving     ServingJSON           `json:"serving"`
	Memory      MemoryStatsJSON       `json:"memory"`
	Pipeline    []pipeline.StageStats `json:"pipeline"`
	Store       *store.Stats          `json:"store,omitempty"`
	IngestError string                `json:"ingest_error,omitempty"`
}

// ErrorResponse is the body of every non-200 reply: a message plus the
// HTTP status echoed in the body, so a federation coordinator can relay
// a shard's error verbatim.
type ErrorResponse struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
	FedStatus
}

// GenerationHeader is the response header carrying the serving snapshot
// generation on every response: a single integer on a shard/single-node
// daemon, a comma-joined per-shard vector on the federation coordinator.
const GenerationHeader = "X-Bivoc-Generation"

// EpochHeader is the response header carrying a bivocd process's boot
// epoch on every response: a random hexadecimal token minted once by New.
// Generations count publishes within one process and start again at 0
// on every boot, so a generation names one snapshot only together with
// the epoch beside it; the federation coordinator's cache compares the
// two.
const EpochHeader = "X-Bivoc-Epoch"

// buildMux wires the API routes, wrapped so every response — including
// 404s and parse errors — carries GenerationHeader and EpochHeader.
// Handlers that load a snapshot overwrite the generation with that
// snapshot's, so header and body always agree. Every route runs through
// the SLO recorder, which feeds the per-endpoint serving section of
// /statsz.
func (s *Server) buildMux() http.Handler {
	mux := http.NewServeMux()
	route := func(method, path string, h http.HandlerFunc) {
		mux.HandleFunc(method+" "+path, s.slo.Wrap(path, h))
	}
	for _, name := range s.eps.Names() {
		route("GET", "/v1/"+name, s.handleQuery(name))
	}
	route("POST", "/v1/batch", s.handleBatch)
	route("POST", "/v1/shard", s.handleShard)
	route("GET", "/healthz", s.handleHealthz)
	route("GET", "/statsz", s.handleStatsz)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := w.Header()
		h.Set(GenerationHeader, strconv.FormatUint(s.Generation(), 10))
		h[EpochHeader] = s.epoch // read-only, shared by every response
		mux.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// ErrorBody renders an ErrorResponse without the trailing newline — the
// form a /v1/batch sub-result embeds.
func ErrorBody(status int, err error, fs FedStatus) json.RawMessage {
	body, _ := json.Marshal(ErrorResponse{Error: err.Error(), Status: status, FedStatus: fs})
	return body
}

// WriteError answers with a structured error. Errors are never cached or
// compressed.
func WriteError(w http.ResponseWriter, status int, err error, fs FedStatus) {
	writeJSON(w, status, append(ErrorBody(status, err, fs), '\n'))
}

func writeErr(w http.ResponseWriter, status int, err error) {
	WriteError(w, status, err, FedStatus{})
}

// answer is the one cached query path, shared by the GET routes,
// /v1/batch and /v1/shard: consult sn's cache under the canonical key,
// and on a miss render and memoize the bytes to send — a full response
// body, or for /v1/shard the plan's partial under its own key. The caller
// loaded sn exactly once, and both the index and the cache are reached
// through it, so the response is self-consistent with exactly one
// generation and a hit can never serve bytes from another generation.
//
// Counter contract: every call is exactly one hit or one miss — a
// cache-get failure counts as a miss even when the render then fails
// (the one way a miss can fail, a 500), so hits+misses reconciles with
// queries served.
//
// The bytes are rendered once through the pooled scratch buffer and
// cached as a CachedBody, so a hit re-serves the same bytes — and, for
// gzip-accepting clients, the same once-compressed encoding.
func (s *Server) answer(sn *snapshot, key string, render func(sn *snapshot) ([]byte, error)) (*CachedBody, int, error) {
	if cb, ok := sn.cache.get(key); ok {
		s.hits.Add(1)
		return cb, http.StatusOK, nil
	}
	s.misses.Add(1)
	body, err := render(sn)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	cb := &CachedBody{Plain: body}
	sn.cache.put(key, cb)
	return cb, http.StatusOK, nil
}

// respond answers one GET from the current snapshot through answer.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, key string, render func(sn *snapshot) ([]byte, error)) {
	sn := s.snap.Load()
	w.Header().Set(GenerationHeader, strconv.FormatUint(sn.gen, 10))
	cb, status, err := s.answer(sn, key, render)
	if err != nil {
		writeErr(w, status, err)
		return
	}
	WriteJSONBody(w, r, status, cb)
}

// answerFrom renders a plan's response body over a snapshot.
func (p *Plan) answerFrom(sn *snapshot) ([]byte, error) {
	return marshalBody(p.Local(sn.view, Head{Generation: sn.gen, Sealed: sn.sealed}))
}

// partialFrom renders a plan's partial over a snapshot, appended in the
// pooled scratch buffer and copied out exact-size like a marshalled body.
func (p *Plan) partialFrom(sn *snapshot) ([]byte, error) {
	buf := bodyScratch.Get().(*bytes.Buffer)
	defer bodyScratch.Put(buf)
	buf.Reset()
	b := p.answer.partial(buf.AvailableBuffer(), sn.view)
	buf.Write(b) // keeps for the pool whatever b grew past the buffer
	return append([]byte(nil), b...), nil
}

// handleQuery serves GET /v1/<name> from the endpoint table; parse
// failures are 400s.
func (s *Server) handleQuery(name string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		p, err := s.eps.Plan(name, r.URL.Query())
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		s.respond(w, r, p.Key, p.answerFrom)
	}
}

// GET /healthz — liveness plus the serving generation. Always 200 while
// the process serves; ingest and persistence failures are surfaced in
// the body as status "degraded" (the last good snapshot keeps answering
// queries — non-durably, in the persistence case).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	gen, docs, sealed := s.SnapshotInfo()
	w.Header().Set(GenerationHeader, strconv.FormatUint(gen, 10))
	resp := HealthResponse{Status: "ok", Generation: gen, Sealed: sealed, Docs: docs}
	if err := s.IngestErr(); err != nil {
		resp.Status = "degraded"
		resp.IngestError = err.Error()
	}
	if err := s.PersistErr(); err != nil {
		resp.Status = "degraded"
		resp.PersistError = err.Error()
	}
	body, _ := marshalBody(resp)
	WriteJSONBody(w, r, http.StatusOK, &CachedBody{Plain: body})
}

// GET /statsz — operational counters: snapshot generation, cache
// hit/miss, and the ingest pipeline's per-stage stats.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	sn := s.snap.Load()
	w.Header().Set(GenerationHeader, strconv.FormatUint(sn.gen, 10))
	segDocs, compactions := s.SegmentInfo()
	resp := StatszResponse{
		Generation: sn.gen,
		Sealed:     sn.sealed,
		Docs:       sn.view.Len(),
		Segments: SegmentsJSON{
			Count:       len(segDocs),
			Docs:        segDocs,
			MaxSegments: s.cfg.maxSegments(),
			Compactions: compactions,
		},
		Cache: CacheStatsJSON{
			Hits:     s.hits.Load(),
			Misses:   s.misses.Load(),
			Size:     sn.cache.len(),
			Capacity: s.cfg.cacheSize(),
		},
		Serving: s.slo.Snapshot(),
		Memory:  memoryStats(),
	}
	if s.cfg.PipelineStats != nil {
		resp.Pipeline = s.cfg.PipelineStats()
	}
	if s.cfg.Persist != nil {
		st := s.cfg.Persist.Stats()
		resp.Store = &st
		resp.Memory.MappedBytes = st.MappedBytes
	}
	if err := s.IngestErr(); err != nil {
		resp.IngestError = err.Error()
	}
	body, err := marshalBody(resp)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	WriteJSONBody(w, r, http.StatusOK, &CachedBody{Plain: body})
}

// memoryStats reads the process-wide memory counters for /statsz. The
// ReadMemStats pause is microseconds on a modern runtime — fine for an
// operational endpoint, not something to put on the query path.
func memoryStats() MemoryStatsJSON {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out := MemoryStatsJSON{
		HeapAllocBytes: ms.HeapAlloc,
		HeapInuseBytes: ms.HeapInuse,
		NumGC:          ms.NumGC,
	}
	// SetMemoryLimit(-1) is a pure read; MaxInt64 means "no limit set",
	// which the section omits rather than reporting an absurd number.
	if lim := debug.SetMemoryLimit(-1); lim < math.MaxInt64 {
		out.GoMemLimitBytes = lim
	}
	return out
}
