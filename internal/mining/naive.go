package mining

import (
	"sort"

	"bivoc/internal/stats"
)

// NaiveIndex is the reference Querier: the original hash-set query
// engine, kept as the oracle every fast path is pinned to. It reads the
// Backing of the Index it was taken from and nothing else of it — no
// prepared caches, no conjunction memo, no pooled scratch, no one-pass
// marginals: every count materializes a set, a limited drill-down sorts
// the whole cell and then truncates, an association table recomputes
// each column marginal and its Wilson interval once per row, and the
// marginal extractions are one CountBoth per cell or per concept.
//
// No product path constructs one. The equivalence suites compare each
// fast configuration — sealed with a cold and a warm conjunction memo,
// built in arrival order, segmented, compacted, mapped, served by a
// daemon or a fleet — with the naive view of one monolithic index over
// the same documents.
type NaiveIndex struct{ b Backing }

var _ Querier = (*NaiveIndex)(nil)

// Naive returns the oracle view over the index's backing, heap or
// mapped: what the index holds, the view holds.
func (ix *Index) Naive() *NaiveIndex { return &NaiveIndex{b: ix.b} }

// postings returns the document positions matching a dimension.
func (n *NaiveIndex) postings(d Dim) []int {
	if len(d.And) > 0 {
		return n.intersect(d.And)
	}
	return leafPostings(n.b, d)
}

// intersect returns document positions matching every dimension,
// smallest-list-first for efficiency.
func (n *NaiveIndex) intersect(dims []Dim) []int {
	if len(dims) == 0 {
		return nil
	}
	lists := make([][]int, len(dims))
	for i, d := range dims {
		lists[i] = n.postings(d)
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	current := map[int]bool{}
	for _, p := range lists[0] {
		current[p] = true
	}
	for _, list := range lists[1:] {
		next := map[int]bool{}
		for _, p := range list {
			if current[p] {
				next[p] = true
			}
		}
		current = next
		if len(current) == 0 {
			break
		}
	}
	out := make([]int, 0, len(current))
	for p := range current {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// Len returns the number of documents behind the view.
func (n *NaiveIndex) Len() int { return n.b.DocCount() }

// Count materializes the dimension's postings and returns their number.
func (n *NaiveIndex) Count(d Dim) int { return len(n.postings(d)) }

// CountBoth counts documents matching both dimensions through a
// materialized hash set.
func (n *NaiveIndex) CountBoth(a, b Dim) int {
	pa, pb := n.postings(a), n.postings(b)
	if len(pa) > len(pb) {
		pa, pb = pb, pa
	}
	set := make(map[int]bool, len(pa))
	for _, p := range pa {
		set[p] = true
	}
	c := 0
	for _, p := range pb {
		if set[p] {
			c++
		}
	}
	return c
}

// DrillDown returns the documents matching both dimensions via a
// hash-set membership scan, sorted by ID.
func (n *NaiveIndex) DrillDown(a, b Dim) []Document {
	pa, pb := n.postings(a), n.postings(b)
	set := make(map[int]bool, len(pa))
	for _, p := range pa {
		set[p] = true
	}
	var out []Document
	for _, p := range pb {
		if set[p] {
			out = append(out, n.b.Doc(p))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// DrillDownLimit sorts the whole cell, then truncates it.
func (n *NaiveIndex) DrillDownLimit(a, b Dim, limit int) (docs []Document, count int) {
	cell := n.DrillDown(a, b)
	if limit >= 0 && limit < len(cell) {
		return cell[:limit], len(cell)
	}
	return cell, len(cell)
}

// ConceptsInCategory, ConceptDF and FieldValues scan the backing's
// vocabulary, where an Index reads the lists it prepared.
func (n *NaiveIndex) ConceptsInCategory(category string) []string {
	return ConceptNames(scanConceptDF(n.b, category))
}

func (n *NaiveIndex) ConceptDF(category string) []ConceptCount {
	return scanConceptDF(n.b, category)
}

func (n *NaiveIndex) FieldValues(field string) []string { return scanFieldValues(n.b, field) }

// scanConceptDF scans the concept map for the category's vocabulary and
// puts it in report order (frequency descending, ties lexicographic).
// Non-nil even when the category is absent.
func scanConceptDF(b Backing, category string) []ConceptCount {
	out := []ConceptCount{}
	b.EachConcept(func(cat, canon string, df int) {
		if cat == category {
			out = append(out, ConceptCount{Concept: canon, DF: df})
		}
	})
	sortReportOrder(out)
	return out
}

// scanFieldValues scans the field map for the field's values, sorted;
// nil when the field is absent.
func scanFieldValues(b Backing, field string) []string {
	var out []string
	b.EachField(func(f, value string, _ int) {
		if f == field {
			out = append(out, value)
		}
	})
	sort.Strings(out)
	return out
}

// RelativeFrequency is the hash-set relevancy analysis, with its own
// ratio math (FinalizeRelFreq is part of what it is the oracle for).
func (n *NaiveIndex) RelativeFrequency(category string, featured Dim) []Relevance {
	subset := n.postings(featured)
	subSet := make(map[int]bool, len(subset))
	for _, p := range subset {
		subSet[p] = true
	}
	total := n.b.DocCount()
	var out []Relevance
	n.b.EachConcept(func(cat, canon string, _ int) {
		if cat != category {
			return
		}
		posts := n.b.ConceptPostings(cat, canon)
		inSub := 0
		for _, p := range posts {
			if subSet[p] {
				inSub++
			}
		}
		r := Relevance{
			Concept:  canon,
			InSubset: inSub, SubsetSize: len(subset),
			InAll: len(posts), N: total,
		}
		if len(subset) > 0 && len(posts) > 0 && total > 0 {
			pSub := float64(inSub) / float64(len(subset))
			pAll := float64(len(posts)) / float64(total)
			r.Ratio = pSub / pAll
		}
		out = append(out, r)
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ratio != out[j].Ratio {
			return out[i].Ratio > out[j].Ratio
		}
		return out[i].Concept < out[j].Concept
	})
	return out
}

// AssociateN builds the association table sequentially, recomputing
// every column marginal (and its Wilson interval) once per row — the
// original shape the hoisted FinalizeAssoc pipeline is proven against.
// The last parameter is ignored (see Querier).
func (n *NaiveIndex) AssociateN(rows, cols []Dim, confidence float64, _ int) *AssocTable {
	if !(confidence > 0 && confidence < 1) { // NaN too
		confidence = 0.95
	}
	total := n.b.DocCount()
	tbl := &AssocTable{Rows: rows, Cols: cols, Confidence: confidence}
	tbl.Cells = make([][]Cell, len(rows))
	for i, rd := range rows {
		tbl.Cells[i] = make([]Cell, len(cols))
		nver := n.Count(rd)
		for j, cd := range cols {
			nhor := n.Count(cd)
			ncell := n.CountBoth(rd, cd)
			cell := Cell{
				Row: rd, Col: cd,
				Ncell: ncell, Nver: nver, Nhor: nhor, N: total,
			}
			if total > 0 && nver > 0 && nhor > 0 {
				pCell := float64(ncell) / float64(total)
				pVer := float64(nver) / float64(total)
				pHor := float64(nhor) / float64(total)
				if pVer > 0 && pHor > 0 {
					cell.PointIndex = pCell / (pVer * pHor)
				}
				// Conservative (smallest) value of the index: lower bound
				// of the cell density over upper bounds of the marginals.
				cellIv := stats.WilsonInterval(ncell, total, confidence)
				verIv := stats.WilsonInterval(nver, total, confidence)
				horIv := stats.WilsonInterval(nhor, total, confidence)
				if verIv.Hi > 0 && horIv.Hi > 0 {
					cell.LowerIndex = cellIv.Lo / (verIv.Hi * horIv.Hi)
				}
			}
			tbl.Cells[i][j] = cell
		}
		rowTotal := 0
		for j := range cols {
			rowTotal += tbl.Cells[i][j].Ncell
		}
		if rowTotal > 0 {
			for j := range cols {
				tbl.Cells[i][j].RowShare = float64(tbl.Cells[i][j].Ncell) / float64(rowTotal)
			}
		}
	}
	return tbl
}

// Trend buckets the naive postings by document time.
func (n *NaiveIndex) Trend(d Dim) []TrendPoint {
	counts := map[int]int{}
	for _, p := range n.postings(d) {
		counts[n.b.DocTime(p)]++
	}
	out := make([]TrendPoint, 0, len(counts))
	for t, c := range counts {
		out = append(out, TrendPoint{t, c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// RelFreqMarginals is one CountBoth per concept of the category — the
// loop the one-pass extraction replaced.
func (n *NaiveIndex) RelFreqMarginals(category string, featured Dim) RelFreqMarginals {
	m := RelFreqMarginals{N: n.Len(), SubsetSize: n.Count(featured)}
	for _, c := range n.ConceptDF(category) {
		m.Concepts = append(m.Concepts, ConceptMarginal{Concept: c.Concept,
			InSubset: n.CountBoth(ConceptDim(category, c.Concept), featured), InAll: c.DF})
	}
	sort.Slice(m.Concepts, func(i, j int) bool { return m.Concepts[i].Concept < m.Concepts[j].Concept })
	return m
}

// AssocMarginals is a Count per dimension and a CountBoth per cell — the
// extraction the one-pass mark-then-probe count replaced.
func (n *NaiveIndex) AssocMarginals(rows, cols []Dim) AssocMarginals {
	m := AssocMarginals{N: n.Len(), Nver: make([]int, len(rows)), Nhor: make([]int, len(cols)), Ncell: make([][]int, len(rows))}
	for j, c := range cols {
		m.Nhor[j] = n.Count(c)
	}
	for i, r := range rows {
		m.Nver[i] = n.Count(r)
		m.Ncell[i] = make([]int, len(cols))
		for j, c := range cols {
			m.Ncell[i][j] = n.CountBoth(r, c)
		}
	}
	return m
}
