package linker

import (
	"sort"

	"bivoc/internal/warehouse"
)

// LearnWeights runs the unsupervised EM-style weight estimation of
// §IV.B: "We start from an initial estimate of the weights, which we use
// to assign each document to an entity of a specific type. From this
// assignment, we re-estimate the weights as w_ij = n_ij / Σ n_ij, where
// n_ij is the number of occurrences of attribute A_i in documents
// assigned to type T_j. This two-step process is continued for a fixed
// number of iterations or until convergence."
//
// An "occurrence of attribute A_i" is a token whose similarity against
// the assigned entity's attribute A_i clears the engine's floor. The
// returned history holds, per iteration, the total weight change — zero
// change means convergence.
func (e *Engine) LearnWeights(docs [][]Token, iterations int) []float64 {
	if iterations <= 0 {
		iterations = 5
	}
	var history []float64
	const floorWeight = 1e-3
	for it := 0; it < iterations; it++ {
		// E-step: assign each document to its best (entity, type) pair
		// under current weights.
		counts := map[Attribute]float64{}
		typeTotals := map[string]float64{}
		for _, tokens := range docs {
			m := e.Link(tokens, 1)
			if len(m) == 0 {
				continue
			}
			assigned := m[0]
			tab := e.db.MustTable(assigned.Table)
			schema := tab.Schema()
			for _, tok := range tokens {
				for _, at := range e.targets[tok.Type] {
					if at.Table != assigned.Table {
						continue
					}
					ci := schemaCol(schema, at.Column)
					sim := similarity(schema.Columns[ci].Match, tok.Text, tab.GetString(assigned.Row, at.Column))
					if sim >= e.floorFor(schema.Columns[ci].Match) {
						counts[at]++
						typeTotals[at.Table]++
					}
				}
			}
		}
		// M-step: re-normalize per type, with a floor so attributes that
		// happened to match nothing this round can recover.
		// attrOrder, not the weight map, fixes the order delta is summed in.
		delta := 0.0
		for _, at := range e.attrOrder {
			old := e.weights[at]
			total := typeTotals[at.Table]
			var next float64
			if total > 0 {
				next = counts[at] / total
			} else {
				next = old // no evidence for this type this round
			}
			if next < floorWeight {
				next = floorWeight
			}
			delta += abs(next - old)
			e.weights[at] = next
		}
		// Renormalize per table after flooring.
		e.normalizeWeights()
		history = append(history, delta)
		if delta < 1e-9 {
			break
		}
	}
	return history
}

func (e *Engine) normalizeWeights() {
	totals := map[string]float64{}
	for _, at := range e.attrOrder {
		totals[at.Table] += e.weights[at]
	}
	for _, at := range e.attrOrder {
		if t := totals[at.Table]; t > 0 {
			e.weights[at] /= t
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// GoldLabel is the true entity for an evaluation document.
type GoldLabel struct {
	Table string
	Row   warehouse.RowID
}

// EvalResult summarizes linking quality over a labeled corpus. The paper
// discusses linking recall and precision qualitatively; the churn use
// case reports the unlinkable fraction (≈18% of emails).
type EvalResult struct {
	Docs       int
	Linked     int // documents with at least one match
	Correct    int // top-1 match equals gold
	CorrectIn  int // gold appears within top-k
	Unlinkable int // no match produced
	K          int
}

// Evaluate links every document and scores against gold labels. A doc
// with a nil gold entry (a non-customer) counts toward Docs and toward
// Linked or Unlinkable, and never toward Correct or CorrectIn: any link
// it produces is spurious.
func (e *Engine) Evaluate(docs [][]Token, gold []*GoldLabel, k int) EvalResult {
	if k <= 0 {
		k = 1
	}
	res := EvalResult{Docs: len(docs), K: k}
	for i, tokens := range docs {
		matches := e.Link(tokens, k)
		if len(matches) == 0 {
			res.Unlinkable++
			continue
		}
		res.Linked++
		g := gold[i]
		if g == nil {
			continue // spurious link for a non-customer
		}
		if matches[0].Table == g.Table && matches[0].Row == g.Row {
			res.Correct++
		}
		for _, m := range matches {
			if m.Table == g.Table && m.Row == g.Row {
				res.CorrectIn++
				break
			}
		}
	}
	return res
}

// TopNames returns the distinct values of a name attribute among the
// top-k matches — the candidate list handed to the second-pass ASR
// (§IV.A.1: "extract topN matching identities from the structured
// database ... to limit the number of possibilities for a named entity").
func (e *Engine) TopNames(tokens []Token, table, column string, k int) []string {
	matches := e.LinkTable(tokens, table, k)
	tab := e.db.MustTable(table)
	seen := map[string]bool{}
	var out []string
	for _, m := range matches {
		full := tab.GetString(m.Row, column)
		for _, w := range splitWords(full) {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
	}
	sort.Strings(out)
	return out
}

func splitWords(s string) []string {
	var out []string
	start := -1
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] != ' ' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			out = append(out, lower(s[start:i]))
			start = -1
		}
	}
	return out
}

func lower(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}
