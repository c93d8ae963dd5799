package voctest_test

import (
	"fmt"
	"math"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"bivoc/internal/mining"
	"bivoc/internal/voctest"
)

// recorder is a testing.TB that keeps what CheckQueriers reports instead
// of failing the test that holds it.
type recorder struct {
	testing.TB
	reports []string
}

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, args ...any) {
	r.reports = append(r.reports, fmt.Sprintf(format, args...))
}

// skewed is a Querier that answers as the one it wraps except where one of
// its hooks says otherwise.
type skewed struct {
	mining.Querier
	count     func(d mining.Dim, n int) int
	drill     func(a, b mining.Dim, docs []mining.Document) []mining.Document
	limited   func(a, b mining.Dim, limit int, docs []mining.Document) []mining.Document
	fields    func(vals []string) []string
	marginals func(m mining.AssocMarginals) mining.AssocMarginals
	table     func(t *mining.AssocTable) *mining.AssocTable
}

func (s skewed) Count(d mining.Dim) int {
	n := s.Querier.Count(d)
	if s.count != nil {
		n = s.count(d, n)
	}
	return n
}

func (s skewed) DrillDown(a, b mining.Dim) []mining.Document {
	docs := s.Querier.DrillDown(a, b)
	if s.drill != nil {
		docs = s.drill(a, b, docs)
	}
	return docs
}

func (s skewed) DrillDownLimit(a, b mining.Dim, limit int) ([]mining.Document, int) {
	docs, n := s.Querier.DrillDownLimit(a, b, limit)
	if s.limited != nil {
		docs = s.limited(a, b, limit, docs)
	}
	return docs, n
}

func (s skewed) FieldValues(field string) []string {
	vals := s.Querier.FieldValues(field)
	if s.fields != nil {
		vals = s.fields(vals)
	}
	return vals
}

func (s skewed) AssocMarginals(rows, cols []mining.Dim) mining.AssocMarginals {
	m := s.Querier.AssocMarginals(rows, cols)
	if s.marginals != nil {
		m = s.marginals(m)
	}
	return m
}

func (s skewed) AssociateN(rows, cols []mining.Dim, confidence float64, workers int) *mining.AssocTable {
	t := s.Querier.AssociateN(rows, cols, confidence, workers)
	if s.table != nil {
		t = s.table(t)
	}
	return t
}

// TestCheckQueriersDetectsDivergence shows the comparator can fail: a
// Querier that is off by one on one conjunction's count, drops one
// drill-down document (unlimited, and at one limit only), says "empty"
// where the oracle says "absent", or perturbs one cell — an integer
// marginal by one, a float by one unit in the last place — draws a report
// each time, and the same Querier left alone draws none.
func TestCheckQueriersDetectsDivergence(t *testing.T) {
	t.Parallel()
	w := voctest.NewWorld(20210, 150)
	ix := w.Index()
	naive := ix.Naive()

	// The victims: a conjunction with documents, and a pair whose cell is
	// large enough to lose one.
	conj := w.Dims[11]
	if len(conj.And) == 0 || naive.Count(conj) == 0 {
		t.Fatalf("%s is not a conjunction with documents in this world", conj.Label())
	}
	var pair [2]mining.Dim
	for _, p := range w.Pairs {
		if naive.CountBoth(p[0], p[1]) >= 7 {
			pair = p
			break
		}
	}
	if pair[0].Label() == "" {
		t.Fatal("no pair of the battery has a cell of 7 documents in this world")
	}
	isPair := func(a, b mining.Dim) bool { return reflect.DeepEqual([2]mining.Dim{a, b}, pair) }
	dropLast := func(docs []mining.Document) []mining.Document { return docs[:len(docs)-1] }

	cases := []struct {
		name string
		q    skewed
		want string // what the report must name
	}{
		{"an off-by-one conjunction count", skewed{count: func(d mining.Dim, n int) int {
			if d.CanonicalLabel() == conj.CanonicalLabel() {
				n++
			}
			return n
		}}, "Count(" + conj.Label() + ")"},
		{"a dropped drill-down document", skewed{drill: func(a, b mining.Dim, docs []mining.Document) []mining.Document {
			if isPair(a, b) {
				docs = dropLast(docs)
			}
			return docs
		}}, "DrillDown(" + pair[0].Label()},
		{"a document dropped at one limit", skewed{limited: func(a, b mining.Dim, limit int, docs []mining.Document) []mining.Document {
			if isPair(a, b) && limit == 5 {
				docs = dropLast(docs)
			}
			return docs
		}}, "DrillDownLimit(" + pair[0].Label()},
		{"empty for absent", skewed{fields: func(vals []string) []string {
			if vals == nil {
				vals = []string{}
			}
			return vals
		}}, `FieldValues("missing-field")`},
		{"a marginal cell off by one", skewed{marginals: func(m mining.AssocMarginals) mining.AssocMarginals {
			if len(m.Ncell) == 4 && len(m.Ncell[0]) == voctest.Wide {
				m.Ncell[3][voctest.Wide-1]++
			}
			return m
		}}, "AssocMarginals(65 columns)"},
		{"a float one unit in the last place off", skewed{table: func(t *mining.AssocTable) *mining.AssocTable {
			if c := &t.Cells[0][0]; len(t.Cells) == 4 && len(t.Cols) == 3 && t.Confidence == 0.99 && c.LowerIndex > 0 {
				c.LowerIndex = math.Nextafter(c.LowerIndex, 2*c.LowerIndex)
			}
			return t
		}}, "AssociateN(plain, confidence 0.99)"},
	}
	for _, tc := range cases {
		tc.q.Querier = ix
		rec := &recorder{}
		voctest.CheckQueriers(rec, tc.q, naive, w)
		if len(rec.reports) != 1 || !strings.Contains(rec.reports[0], tc.want) {
			t.Errorf("%s: want one report naming %s, got %q", tc.name, tc.want, rec.reports)
		}
	}
	rec := &recorder{}
	voctest.CheckQueriers(rec, skewed{Querier: ix}, naive, w)
	if len(rec.reports) != 0 {
		t.Errorf("the unperturbed Querier drew reports: %q", rec.reports)
	}
	// The one thing about a document the comparator does not tell apart:
	// which map a document without fields holds.
	swapped := 0
	swap := func(docs []mining.Document) []mining.Document {
		docs = append([]mining.Document(nil), docs...)
		for i, d := range docs {
			if d.Fields == nil {
				docs[i].Fields = map[string]string{}
				swapped++
			} else if len(d.Fields) == 0 {
				docs[i].Fields = nil
				swapped++
			}
		}
		return docs
	}
	voctest.CheckQueriers(rec, skewed{Querier: ix,
		drill:   func(_, _ mining.Dim, docs []mining.Document) []mining.Document { return swap(docs) },
		limited: func(_, _ mining.Dim, _ int, docs []mining.Document) []mining.Document { return swap(docs) },
	}, naive, w)
	if len(rec.reports) != 0 || swapped == 0 {
		t.Errorf("%d field-less documents handed over in the other form drew reports: %q", swapped, rec.reports)
	}
}

// TestWorldHoldsBothFieldlessForms: the worlds that the mapped-restart
// suite of internal/server (20211) and the fleet of internal/fed (20214)
// boot hold a document with a nil Fields map and one with an empty map,
// and the URL battery drills down, in full, into a cell each is in — so a
// suite that compares bodies across a restart sees how both are rendered.
func TestWorldHoldsBothFieldlessForms(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{20211, 20214} {
		w := voctest.NewWorld(seed, 150)
		if len(w.Fieldless) != 2 {
			t.Fatalf("world %d: %d field-less cells, want 2", seed, len(w.Fieldless))
		}
		naive, urls := w.Index().Naive(), strings.Join(w.URLs(), "\n")
		for k, p := range w.Fieldless {
			found := false
			for _, d := range naive.DrillDown(p[0], p[1]) {
				found = found || (len(d.Fields) == 0 && (d.Fields == nil) == (k == 0))
			}
			q := url.Values{"row": {p[0].Label()}, "col": {p[1].Label()}, "limit": {"100000"}}
			if !found || !strings.Contains(urls, "/v1/drilldown?"+q.Encode()) {
				t.Errorf("world %d, field-less cell %d (nil map: %v): document found %v, in the URL battery %v",
					seed, k, k == 0, found, strings.Contains(urls, q.Encode()))
			}
		}
	}
}

// TestWorldIsAFunctionOfItsSeed: the same seed and size give the same
// documents, battery and URLs — a failure is reproduced by naming them —
// and another seed gives another world. Every URL of both batteries
// parses, and its dimension labels round-trip through ParseDim.
func TestWorldIsAFunctionOfItsSeed(t *testing.T) {
	t.Parallel()
	a, b, other := voctest.NewWorld(5, 80), voctest.NewWorld(5, 80), voctest.NewWorld(6, 80)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a.URLs(), b.URLs()) {
		t.Fatal("two worlds of one seed differ")
	}
	if reflect.DeepEqual(a.Docs, other.Docs) || reflect.DeepEqual(a.Trees, other.Trees) {
		t.Fatal("worlds of different seeds share their documents or their trees")
	}
	sorted := true
	for i := 1; i < len(a.Docs); i++ {
		sorted = sorted && a.Docs[i-1].ID < a.Docs[i].ID
	}
	if sorted {
		t.Error("the world's documents arrive in ID order")
	}
	for _, raw := range append(a.URLs(), voctest.ParityURLs()...) {
		u, err := url.Parse(raw)
		if err != nil || !strings.HasPrefix(u.Path, "/v1/") {
			t.Fatalf("battery URL %q: %v", raw, err)
		}
		for _, param := range []string{"dim", "row", "col", "featured"} {
			for _, label := range u.Query()[param] {
				d, err := mining.ParseDim(label)
				if err != nil {
					t.Fatalf("%s: %v", raw, err)
				}
				if again, err := mining.ParseDim(d.Label()); err != nil || !reflect.DeepEqual(again, d) {
					t.Fatalf("%s: label %q does not round-trip: %v", raw, label, err)
				}
			}
		}
	}
}
