package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call; nothing inside the program is instrumented. Start and End
// are nanoseconds since the recorder was made. Parent is the ID of the
// span that caused this one (0 for a root) and Op numbers the sampled
// operation all spans of one request share.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. It records only
// while on is set, so the handler wrappers cost one atomic load during
// the closed-loop phases that share their targets with the traced sample.
type recorder struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	open  map[string]int // name → ID of the most recently begun, still open span
	op    int
	sfx   string // appended to every name begun and every parent looked up
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), open: map[string]int{}}
}

// begin opens a span under the open span named parent ("" for a root).
func (r *recorder) begin(name, parent string) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	name += r.sfx
	r.spans = append(r.spans, span{ID: id, Name: name, Start: now, Parent: r.open[parent+r.sfx], Op: r.op})
	r.open[name] = id
	return id
}

// suffix names the pass the sampler is in ("_miss", "_hit"), so that the
// spans of a cold-cache pass and a warm-cache pass can be told apart
// although the same wrappers record them.
func (r *recorder) suffix(s string) {
	r.mu.Lock()
	r.sfx = s
	r.mu.Unlock()
}

func (r *recorder) end(id int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	if r.open[s.Name] == id {
		delete(r.open, s.Name)
	}
}

// nextOp starts a new sampled operation and returns its number; spans
// begun from now on carry it.
func (r *recorder) nextOp() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.op++
	return r.op
}

// wrap records a span named name around every request h serves while
// the recorder is on, as a child of the open span named parent.
func (r *recorder) wrap(name, parent string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		id := r.begin(name, parent)
		h.ServeHTTP(w, req)
		r.end(id)
	})
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Children may overlap each
// other (four shards answer one scatter at once) and may stick out of the
// parent (a handler returns a moment after the client has its reply):
// the covered part is the union of the children clipped to the parent.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), p.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[p.ID] = time.Duration(p.End - p.Start - covered)
	}
	return self
}

// byName groups span durations (or self times) by span name.
func (r *recorder) byName(self bool) map[string][]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var st map[int]time.Duration
	if self {
		st = selfTimes(r.spans)
	}
	out := map[string][]time.Duration{}
	for _, s := range r.spans {
		d := s.dur()
		if self {
			d = st[s.ID]
		}
		out[s.Name] = append(out[s.Name], d)
	}
	return out
}

// perOp folds the spans named name into one value for each sampled
// operation numbered lo to hi that has such a span, with fold (max for
// the slowest shard, sum for total shard time, min over repeats).
func (r *recorder) perOp(name string, lo, hi int, fold func(a, b time.Duration) time.Duration) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	acc := map[int]time.Duration{}
	for _, s := range r.spans {
		if s.Name != name || s.Op < lo || s.Op > hi {
			continue
		}
		if prev, ok := acc[s.Op]; ok {
			acc[s.Op] = fold(prev, s.dur())
		} else {
			acc[s.Op] = s.dur()
		}
	}
	out := make([]time.Duration, 0, len(acc))
	for o := lo; o <= hi; o++ {
		if d, ok := acc[o]; ok {
			out = append(out, d)
		}
	}
	return out
}

// writeFile dumps the spans as JSON.
func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
