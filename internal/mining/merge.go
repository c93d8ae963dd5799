package mining

import (
	"sort"

	"bivoc/internal/stats"
)

// This file is the single home of the marginal-merge math: every §IV.D
// operation that ends in float arithmetic (relative-frequency ratios,
// Wilson-interval association indexes) is split into an integer
// "marginals" half and a float "finalize" half. Marginals from disjoint
// document sets merge by plain integer addition, and only the merged
// counts enter the float pipeline — never per-part floats — so a result
// assembled from N parts is byte-identical to the same operation over
// the union corpus. Both in-process segment fan-in (SegmentSet) and the
// cross-process federation coordinator (internal/fed) call exactly
// these helpers; neither carries its own copy of the math. Between
// daemons the marginal types travel as the partials of the /v1/shard
// exchange (internal/server/partials.go).

// ConceptCount is one concept's document frequency within a category —
// the merged-df unit behind ConceptsInCategory's report order.
type ConceptCount struct {
	Concept string
	DF      int
}

// MergeConceptCounts sums document frequencies per concept across parts
// with disjoint document sets and returns the vocabulary in report
// order (frequency descending, ties lexicographic) — the same total
// order each segment's vocabulary is prepared in.
func MergeConceptCounts(parts ...[]ConceptCount) []ConceptCount {
	df := map[string]int{}
	for _, part := range parts {
		for _, c := range part {
			df[c.Concept] += c.DF
		}
	}
	out := make([]ConceptCount, 0, len(df))
	for concept, n := range df {
		out = append(out, ConceptCount{Concept: concept, DF: n})
	}
	sortReportOrder(out)
	return out
}

// sortReportOrder puts a vocabulary in report order: frequency
// descending, ties lexicographic.
func sortReportOrder(counts []ConceptCount) {
	sort.Slice(counts, func(i, j int) bool {
		if counts[i].DF != counts[j].DF {
			return counts[i].DF > counts[j].DF
		}
		return counts[i].Concept < counts[j].Concept
	})
}

// ConceptNames projects a merged vocabulary onto its concept names.
func ConceptNames(counts []ConceptCount) []string {
	out := make([]string, len(counts))
	for i, c := range counts {
		out[i] = c.Concept
	}
	return out
}

// ConceptMarginal holds one concept's integer marginals for a
// relative-frequency report: its document frequency inside the featured
// subset and in the whole part.
type ConceptMarginal struct {
	Concept  string
	InSubset int
	InAll    int
}

// RelFreqMarginals are the integer marginals of one relative-frequency
// computation over some document set: the part's size, the featured
// subset's size within it, and per-concept counts (sorted by concept
// for a deterministic wire form).
type RelFreqMarginals struct {
	N          int
	SubsetSize int
	Concepts   []ConceptMarginal
}

// MergeRelFreqMarginals merges relative-frequency marginals from parts
// with disjoint document sets: sizes and per-concept counts add.
func MergeRelFreqMarginals(parts ...RelFreqMarginals) RelFreqMarginals {
	out := RelFreqMarginals{}
	merged := map[string]*ConceptMarginal{}
	var order []string
	for _, p := range parts {
		out.N += p.N
		out.SubsetSize += p.SubsetSize
		for _, c := range p.Concepts {
			a := merged[c.Concept]
			if a == nil {
				a = &ConceptMarginal{Concept: c.Concept}
				merged[c.Concept] = a
				order = append(order, c.Concept)
			}
			a.InSubset += c.InSubset
			a.InAll += c.InAll
		}
	}
	sort.Strings(order)
	if len(order) > 0 {
		out.Concepts = make([]ConceptMarginal, 0, len(order))
		for _, concept := range order {
			out.Concepts = append(out.Concepts, *merged[concept])
		}
	}
	return out
}

// FinalizeRelFreq runs the relative-frequency float pipeline over
// (merged) integer marginals: per-concept density ratios, then the
// report order (ratio descending, ties by concept). This is the only
// implementation of that math; SegmentSet and the coordinator end here.
func FinalizeRelFreq(m RelFreqMarginals) []Relevance {
	var out []Relevance
	for _, c := range m.Concepts {
		r := Relevance{
			Concept:  c.Concept,
			InSubset: c.InSubset, SubsetSize: m.SubsetSize,
			InAll: c.InAll, N: m.N,
		}
		if m.SubsetSize > 0 && c.InAll > 0 && m.N > 0 {
			pSub := float64(c.InSubset) / float64(m.SubsetSize)
			pAll := float64(c.InAll) / float64(m.N)
			r.Ratio = pSub / pAll
		}
		out = append(out, r)
	}
	// Concepts are unique within a category, so (Ratio desc, Concept asc)
	// is a total order and the report is deterministic regardless of the
	// marginals' order.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ratio != out[j].Ratio {
			return out[i].Ratio > out[j].Ratio
		}
		return out[i].Concept < out[j].Concept
	})
	return out
}

// AssocMarginals are the integer marginals of one association table
// over some document set: the part's size, per-row and per-column
// dimension counts, and the per-cell joint counts ([row][col]).
type AssocMarginals struct {
	N     int
	Nver  []int
	Nhor  []int
	Ncell [][]int
}

// Fits reports whether m is shaped for a rows × cols table — the
// precondition of MergeAssocMarginals and FinalizeAssoc, which index by
// position. Marginals decoded from another process must pass it first.
func (m AssocMarginals) Fits(rows, cols int) bool {
	ok := len(m.Nver) == rows && len(m.Nhor) == cols && len(m.Ncell) == rows
	for _, row := range m.Ncell {
		ok = ok && len(row) == cols
	}
	return ok
}

// MergeAssocMarginals merges association marginals from parts with
// disjoint document sets (all parts computed for the same row/column
// dimensions): every count adds. Zero parts yield the zero value.
func MergeAssocMarginals(parts ...AssocMarginals) AssocMarginals {
	out := AssocMarginals{}
	for _, p := range parts {
		if out.Nver == nil {
			out.Nver = make([]int, len(p.Nver))
			out.Nhor = make([]int, len(p.Nhor))
			out.Ncell = make([][]int, len(p.Ncell))
			for i := range out.Ncell {
				out.Ncell[i] = make([]int, len(p.Nhor))
			}
		}
		out.N += p.N
		for i, n := range p.Nver {
			out.Nver[i] += n
		}
		for j, n := range p.Nhor {
			out.Nhor[j] += n
		}
		for i, row := range p.Ncell {
			for j, n := range row {
				out.Ncell[i][j] += n
			}
		}
	}
	return out
}

// DefaultConfidence is the confidence level of the association
// intervals when a caller gives none.
const DefaultConfidence = 0.95

// Confidence returns c when it is a confidence level, in (0,1), and
// DefaultConfidence for anything else, NaN included.
func Confidence(c float64) float64 {
	if c > 0 && c < 1 {
		return c
	}
	return DefaultConfidence
}

// FinalizeAssoc runs the association float pipeline over (merged)
// integer marginals: point index, Wilson intervals via
// stats.WilsonIntervalZ on the merged counts — never averaged per-part
// intervals — and within-row shares. m must be shaped for rows × cols.
// SegmentSet.AssociateN and the federation coordinator both assemble
// their tables here, so there is exactly one copy of the cell float
// math; every count arrives precomputed, which leaves a cell an integer
// lookup plus Wilson arithmetic. The confidence is normalized by
// Confidence.
func FinalizeAssoc(rows, cols []Dim, confidence float64, m AssocMarginals) *AssocTable {
	confidence = Confidence(confidence)
	z := stats.WilsonZ(confidence)
	n := m.N
	tbl := &AssocTable{Rows: rows, Cols: cols, Confidence: confidence}
	tbl.Cells = make([][]Cell, len(rows))
	verIv := make([]stats.Interval, len(rows))
	horIv := make([]stats.Interval, len(cols))
	for i := range rows {
		verIv[i] = stats.WilsonIntervalZ(m.Nver[i], n, z)
	}
	for j := range cols {
		horIv[j] = stats.WilsonIntervalZ(m.Nhor[j], n, z)
	}
	for i := range rows {
		tbl.Cells[i] = make([]Cell, len(cols))
		nver, rowTotal := m.Nver[i], 0
		for j := range cols {
			nc, nhor := m.Ncell[i][j], m.Nhor[j]
			cell := Cell{
				Row: rows[i], Col: cols[j],
				Ncell: nc, Nver: nver, Nhor: nhor, N: n,
			}
			if n > 0 && nver > 0 && nhor > 0 {
				pCell := float64(nc) / float64(n)
				pVer := float64(nver) / float64(n)
				pHor := float64(nhor) / float64(n)
				if pVer > 0 && pHor > 0 {
					cell.PointIndex = pCell / (pVer * pHor)
				}
				// Conservative (smallest) value of the index: lower bound
				// of the cell density over upper bounds of the marginals.
				cellIv := stats.WilsonIntervalZ(nc, n, z)
				if verIv[i].Hi > 0 && horIv[j].Hi > 0 {
					cell.LowerIndex = cellIv.Lo / (verIv[i].Hi * horIv[j].Hi)
				}
			}
			tbl.Cells[i][j] = cell
			rowTotal += nc
		}
		if rowTotal > 0 {
			for j := range cols {
				tbl.Cells[i][j].RowShare = float64(tbl.Cells[i][j].Ncell) / float64(rowTotal)
			}
		}
	}
	return tbl
}

// MergeFieldValues unions per-part field vocabularies, sorted; nil when
// every part is empty (matching FieldValues over one segment).
func MergeFieldValues(parts ...[]string) []string {
	seen := map[string]bool{}
	var out []string
	for _, part := range parts {
		for _, v := range part {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Strings(out)
	return out
}

// MergeTrends sums per-part time-bucket counts over disjoint document
// sets, sorted by time. Always non-nil, like Trend over one segment.
func MergeTrends(parts ...[]TrendPoint) []TrendPoint {
	counts := map[int]int{}
	for _, part := range parts {
		for _, p := range part {
			counts[p.Time] += p.Count
		}
	}
	out := make([]TrendPoint, 0, len(counts))
	for t, c := range counts {
		out = append(out, TrendPoint{t, c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}
