package mining

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"bivoc/internal/annotate"
)

func doc(id string, time int, fields map[string]string, concepts ...[2]string) Document {
	d := Document{ID: id, Time: time, Fields: fields}
	for _, c := range concepts {
		d.Concepts = append(d.Concepts, annotate.Concept{Category: c[0], Canonical: c[1]})
	}
	return d
}

// buildIndex creates a small corpus with a designed association:
// strong-start calls mostly convert, weak-start calls mostly do not.
func buildIndex() *Index {
	var docs []Document
	id := 0
	add := func(n int, intent, outcome string, extra ...[2]string) {
		for i := 0; i < n; i++ {
			id++
			cs := append([][2]string{{"intent", intent}}, extra...)
			var cc [][2]string
			cc = append(cc, cs...)
			d := doc(fmt.Sprintf("d%03d", id), i%5, map[string]string{"outcome": outcome})
			for _, c := range cc {
				d.Concepts = append(d.Concepts, annotate.Concept{Category: c[0], Canonical: c[1]})
			}
			docs = append(docs, d)
		}
	}
	add(63, "strong start", "reservation")
	add(37, "strong start", "unbooked")
	add(32, "weak start", "reservation", [2]string{"agent", "discount"})
	add(68, "weak start", "unbooked")
	return Seal(docs)
}

func TestCounts(t *testing.T) {
	ix := buildIndex()
	if ix.Len() != 200 {
		t.Fatalf("len = %d", ix.Len())
	}
	if got := ix.Count(ConceptDim("intent", "strong start")); got != 100 {
		t.Errorf("strong start count = %d", got)
	}
	if got := ix.Count(FieldDim("outcome", "reservation")); got != 95 {
		t.Errorf("reservation count = %d", got)
	}
	if got := ix.Count(CategoryDim("intent")); got != 200 {
		t.Errorf("intent category count = %d", got)
	}
	if got := ix.CountBoth(ConceptDim("intent", "strong start"), FieldDim("outcome", "reservation")); got != 63 {
		t.Errorf("joint count = %d", got)
	}
}

func TestDuplicateConceptCountedOnce(t *testing.T) {
	ix := Seal([]Document{doc("x", 0, nil, [2]string{"c", "v"}, [2]string{"c", "v"})})
	if got := ix.Count(ConceptDim("c", "v")); got != 1 {
		t.Errorf("duplicate concept counted %d times", got)
	}
}

func TestAssociateRowShares(t *testing.T) {
	ix := buildIndex()
	tbl := ix.Associate(
		[]Dim{ConceptDim("intent", "strong start"), ConceptDim("intent", "weak start")},
		[]Dim{FieldDim("outcome", "reservation"), FieldDim("outcome", "unbooked")},
		0.95,
	)
	// Table III shape: strong → 63/37, weak → 32/68.
	if got := tbl.Cells[0][0].RowShare; math.Abs(got-0.63) > 1e-9 {
		t.Errorf("strong/reservation share = %v", got)
	}
	if got := tbl.Cells[1][1].RowShare; math.Abs(got-0.68) > 1e-9 {
		t.Errorf("weak/unbooked share = %v", got)
	}
}

func TestAssociateIndexes(t *testing.T) {
	ix := buildIndex()
	tbl := ix.Associate(
		[]Dim{ConceptDim("intent", "strong start")},
		[]Dim{FieldDim("outcome", "reservation"), FieldDim("outcome", "unbooked")},
		0.95,
	)
	strongRes := tbl.Cells[0][0]
	strongUnb := tbl.Cells[0][1]
	// Strong start is positively associated with reservation (>1) and
	// negatively with unbooked (<1).
	if strongRes.PointIndex <= 1 {
		t.Errorf("strong/reservation point index = %v, want >1", strongRes.PointIndex)
	}
	if strongUnb.PointIndex >= 1 {
		t.Errorf("strong/unbooked point index = %v, want <1", strongUnb.PointIndex)
	}
	// The conservative estimate is below the point estimate.
	if strongRes.LowerIndex >= strongRes.PointIndex {
		t.Errorf("lower %v should be below point %v", strongRes.LowerIndex, strongRes.PointIndex)
	}
	if strongRes.LowerIndex <= 0 {
		t.Errorf("lower index should be positive with these counts: %v", strongRes.LowerIndex)
	}
}

func TestLowerIndexSmallCountRobustness(t *testing.T) {
	// A 1-document coincidence has a huge point index but should be
	// heavily discounted by the interval estimate — the §IV.D.2 rationale.
	docs := []Document{doc("a", 0, map[string]string{"o": "x"}, [2]string{"c", "rare"})}
	for i := 0; i < 99; i++ {
		docs = append(docs, doc(fmt.Sprintf("f%d", i), 0, map[string]string{"o": "y"}, [2]string{"c", "common"}))
	}
	ix := Seal(docs)
	tbl := ix.Associate([]Dim{ConceptDim("c", "rare")}, []Dim{FieldDim("o", "x")}, 0.95)
	cell := tbl.Cells[0][0]
	if cell.PointIndex < 50 {
		t.Errorf("point index = %v, expected huge", cell.PointIndex)
	}
	if cell.LowerIndex > cell.PointIndex/10 {
		t.Errorf("lower index %v not conservative enough vs point %v", cell.LowerIndex, cell.PointIndex)
	}
}

func TestStrongestCellsOrdering(t *testing.T) {
	ix := buildIndex()
	tbl := ix.Associate(
		[]Dim{ConceptDim("intent", "strong start"), ConceptDim("intent", "weak start")},
		[]Dim{FieldDim("outcome", "reservation"), FieldDim("outcome", "unbooked")},
		0.95,
	)
	cells := tbl.StrongestCells()
	for i := 1; i < len(cells); i++ {
		if cells[i].LowerIndex > cells[i-1].LowerIndex+1e-12 {
			t.Error("cells not sorted by lower index")
		}
	}
	if len(cells) != 4 {
		t.Errorf("got %d cells", len(cells))
	}
}

func TestRenderContainsShares(t *testing.T) {
	ix := buildIndex()
	tbl := ix.Associate(
		[]Dim{ConceptDim("intent", "strong start")},
		[]Dim{FieldDim("outcome", "reservation"), FieldDim("outcome", "unbooked")},
		0.95,
	)
	s := tbl.Render()
	if !strings.Contains(s, "63%") || !strings.Contains(s, "37%") || !strings.Contains(s, "strong start") {
		t.Errorf("render missing content:\n%s", s)
	}
}

func TestRelativeFrequency(t *testing.T) {
	ix := buildIndex()
	// Within weak-start-converted calls, the "discount" agent concept is
	// over-represented (the §V.B finding).
	rel := ix.RelativeFrequency("agent", FieldDim("outcome", "reservation"))
	if len(rel) != 1 {
		t.Fatalf("relevance rows = %v", rel)
	}
	r := rel[0]
	if r.Concept != "discount" {
		t.Errorf("concept = %q", r.Concept)
	}
	// discount appears only in converted calls: ratio = (32/95)/(32/200) > 1.
	if r.Ratio <= 1 {
		t.Errorf("ratio = %v, want > 1", r.Ratio)
	}
	if r.InSubset != 32 || r.InAll != 32 || r.N != 200 || r.SubsetSize != 95 {
		t.Errorf("counts wrong: %+v", r)
	}
}

func TestRelativeFrequencySorting(t *testing.T) {
	var docs []Document
	for i := 0; i < 10; i++ {
		fields := map[string]string{"g": "in"}
		if i >= 5 {
			fields["g"] = "out"
		}
		d := doc(fmt.Sprintf("d%d", i), 0, fields)
		d.Concepts = append(d.Concepts, annotate.Concept{Category: "c", Canonical: "everywhere"})
		if i < 5 {
			d.Concepts = append(d.Concepts, annotate.Concept{Category: "c", Canonical: "insider"})
		}
		docs = append(docs, d)
	}
	rel := Seal(docs).RelativeFrequency("c", FieldDim("g", "in"))
	if rel[0].Concept != "insider" {
		t.Errorf("most relevant concept = %q", rel[0].Concept)
	}
	if rel[0].Ratio <= rel[1].Ratio {
		t.Error("sorting wrong")
	}
}

func TestDrillDown(t *testing.T) {
	ix := buildIndex()
	docs := ix.DrillDown(ConceptDim("intent", "weak start"), FieldDim("outcome", "reservation"))
	if len(docs) != 32 {
		t.Fatalf("drill-down found %d docs", len(docs))
	}
	for i := 1; i < len(docs); i++ {
		if docs[i].ID < docs[i-1].ID {
			t.Error("drill-down not sorted by ID")
		}
	}
}

func TestConceptsInCategory(t *testing.T) {
	ix := buildIndex()
	got := ix.ConceptsInCategory("intent")
	if len(got) != 2 || got[0] != "strong start" && got[0] != "weak start" {
		t.Errorf("concepts = %v", got)
	}
	// weak start has 100 docs, strong start 100 — tie broken
	// lexicographically: "strong start" first.
	if got[0] != "strong start" {
		t.Errorf("tie break wrong: %v", got)
	}
	if got := ix.ConceptsInCategory("ghost"); len(got) != 0 {
		t.Errorf("phantom category: %v", got)
	}
}

func TestFieldValues(t *testing.T) {
	ix := buildIndex()
	got := ix.FieldValues("outcome")
	if len(got) != 2 || got[0] != "reservation" || got[1] != "unbooked" {
		t.Errorf("field values = %v", got)
	}
}

func TestTrend(t *testing.T) {
	ix := buildIndex()
	points := ix.Trend(ConceptDim("intent", "strong start"))
	total := 0
	for i, p := range points {
		total += p.Count
		if i > 0 && points[i].Time <= points[i-1].Time {
			t.Error("trend not time-sorted")
		}
	}
	if total != 100 {
		t.Errorf("trend total = %d", total)
	}
}

func TestTrendSlope(t *testing.T) {
	rising := []TrendPoint{{0, 1}, {1, 3}, {2, 5}, {3, 7}}
	if s := TrendSlope(rising); math.Abs(s-2) > 1e-9 {
		t.Errorf("slope = %v, want 2", s)
	}
	if s := TrendSlope([]TrendPoint{{0, 4}}); s != 0 {
		t.Errorf("single-point slope = %v", s)
	}
	flat := []TrendPoint{{0, 5}, {1, 5}, {2, 5}}
	if s := TrendSlope(flat); math.Abs(s) > 1e-9 {
		t.Errorf("flat slope = %v", s)
	}
}

func TestEmptyIndex(t *testing.T) {
	ix := Seal(nil)
	if ix.Count(CategoryDim("x")) != 0 {
		t.Error("empty index count")
	}
	tbl := ix.Associate([]Dim{CategoryDim("x")}, []Dim{FieldDim("f", "v")}, 0.95)
	if tbl.Cells[0][0].PointIndex != 0 || tbl.Cells[0][0].RowShare != 0 {
		t.Error("empty cells should be zero")
	}
	if rel := ix.RelativeFrequency("x", CategoryDim("y")); len(rel) != 0 {
		t.Errorf("empty relevance: %v", rel)
	}
}

func TestDimLabel(t *testing.T) {
	if ConceptDim("c", "v").Label() != "v[c]" {
		t.Error("concept label")
	}
	if CategoryDim("c").Label() != "c" {
		t.Error("category label")
	}
	if FieldDim("f", "v").Label() != "f=v" {
		t.Error("field label")
	}
}

func TestAssociateInvalidConfidenceDefaults(t *testing.T) {
	ix := buildIndex()
	rows, cols := []Dim{CategoryDim("intent")}, []Dim{FieldDim("outcome", "reservation")}
	for _, c := range []float64{2.0, 0, math.NaN()} {
		for name, q := range map[string]Querier{"index": ix, "naive": ix.Naive()} {
			if tbl := q.AssociateN(rows, cols, c, 0); tbl.Confidence != 0.95 || math.IsNaN(tbl.Cells[0][0].LowerIndex) {
				t.Errorf("%s at confidence %v: confidence %v, lower index %v", name, c, tbl.Confidence, tbl.Cells[0][0].LowerIndex)
			}
		}
	}
}

func TestAndDimConjunction(t *testing.T) {
	ix := buildIndex()
	weakRes := AndDim(
		ConceptDim("intent", "weak start"),
		FieldDim("outcome", "reservation"),
	)
	if got := ix.Count(weakRes); got != 32 {
		t.Errorf("conjunction count = %d, want 32", got)
	}
	// Conjunction with an impossible member is empty.
	empty := AndDim(ConceptDim("intent", "weak start"), FieldDim("outcome", "ghost"))
	if got := ix.Count(empty); got != 0 {
		t.Errorf("impossible conjunction count = %d", got)
	}
	// Nested conjunctions compose.
	nested := AndDim(weakRes, CategoryDim("agent"))
	if got := ix.Count(nested); got != 32 {
		t.Errorf("nested conjunction = %d (all weak-res docs carry the agent concept)", got)
	}
}

func TestAndDimLabel(t *testing.T) {
	d := AndDim(ConceptDim("c", "v"), FieldDim("f", "x"))
	if got := d.Label(); got != "v[c] ∧ f=x" {
		t.Errorf("label = %q", got)
	}
}

func TestAndDimEmptyBehaves(t *testing.T) {
	ix := buildIndex()
	if got := ix.Count(Dim{And: []Dim{}}); got != ix.Count(CategoryDim("")) {
		// An explicitly empty And list matches nothing by construction.
		_ = got
	}
	if got := ix.Count(AndDim()); got != 0 {
		t.Errorf("empty conjunction matched %d docs", got)
	}
}

func TestRelativeFrequencyWithConjunction(t *testing.T) {
	ix := buildIndex()
	featured := AndDim(
		ConceptDim("intent", "weak start"),
		FieldDim("outcome", "reservation"),
	)
	rel := ix.RelativeFrequency("agent", featured)
	if len(rel) != 1 || rel[0].Concept != "discount" {
		t.Fatalf("relevance = %v", rel)
	}
	// discount appears in ALL weak-start conversions and nowhere else:
	// ratio = (32/32) / (32/200) = 6.25.
	if math.Abs(rel[0].Ratio-6.25) > 1e-9 {
		t.Errorf("ratio = %v, want 6.25", rel[0].Ratio)
	}
}
