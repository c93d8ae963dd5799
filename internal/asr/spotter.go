package asr

import (
	"sort"

	"bivoc/internal/phonetics"
)

// Keyword spotting (§II of the paper): commercial tools "use word
// spotting technologies to index audio conversations and provide a
// framework to write rules to discover associations". The spotter finds
// likely occurrences of a keyword's pronunciation directly in the
// observed phone stream without full decoding — useful both as a cheap
// indexing pass and as the baseline BIVoC improves on (word spotting
// tracks contact-centre metrics; BIVoC links to business outcomes).
//
// The detector slides the keyword pronunciation across the observation
// with a banded edit distance and converts the best-normalized distance
// into a confidence in [0, 1]; hits above the threshold are returned
// with their spans, non-overlapping, best-first.

// Spot is one keyword detection.
type Spot struct {
	Keyword    string
	Span       Span
	Confidence float64
}

// Spotter detects keywords in phone streams.
type Spotter struct {
	lex *Lexicon
	// Threshold is the minimum confidence for a hit (default 0.6).
	Threshold float64
}

// NewSpotter returns a spotter over the lexicon's pronunciations.
func NewSpotter(lex *Lexicon) *Spotter {
	return &Spotter{lex: lex, Threshold: 0.6}
}

// Find returns the non-overlapping occurrences of keyword in observed,
// best-confidence first. Unknown keywords yield nothing.
func (s *Spotter) Find(keyword string, observed []phonetics.Phone) []Spot {
	pron, ok := s.lex.Pronunciation(keyword)
	if !ok || len(pron) == 0 || len(observed) == 0 {
		return nil
	}
	// Collect candidate (end, distance, start) triples from a DP where
	// the keyword must be fully matched but may start anywhere: the
	// classic "semi-global" alignment — free leading/trailing gaps in
	// the observation.
	lk := len(pron)
	lo := len(observed)
	const indel = 0.7
	// dp[i][j]: best cost of aligning pron[:i] against a suffix of
	// observed[:j] that starts anywhere. start[i][j] tracks the start.
	dp := make([][]float64, lk+1)
	start := make([][]int, lk+1)
	for i := range dp {
		dp[i] = make([]float64, lo+1)
		start[i] = make([]int, lo+1)
	}
	for j := 0; j <= lo; j++ {
		dp[0][j] = 0 // free prefix: keyword can start at any j
		start[0][j] = j
	}
	for i := 1; i <= lk; i++ {
		dp[i][0] = float64(i) * indel
		start[i][0] = 0
		for j := 1; j <= lo; j++ {
			sub := dp[i-1][j-1]
			if pron[i-1] != observed[j-1] {
				if phonetics.ClassOf(pron[i-1]) == phonetics.ClassOf(observed[j-1]) {
					sub += 0.5
				} else {
					sub += 1.0
				}
			}
			del := dp[i-1][j] + indel // keyword phone unobserved
			ins := dp[i][j-1] + indel // spurious observed phone inside keyword
			best, from := sub, start[i-1][j-1]
			if del < best {
				best, from = del, start[i-1][j]
			}
			if ins < best {
				best, from = ins, start[i][j-1]
			}
			dp[i][j] = best
			start[i][j] = from
		}
	}
	// Convert ends into hits.
	var hits []Spot
	for j := 1; j <= lo; j++ {
		dist := dp[lk][j]
		conf := 1 - dist/float64(lk)
		if conf < s.Threshold {
			continue
		}
		hits = append(hits, Spot{
			Keyword:    keyword,
			Span:       Span{Start: start[lk][j], End: j},
			Confidence: conf,
		})
	}
	// Non-maximum suppression: keep best hit per overlapping cluster.
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].Confidence != hits[b].Confidence {
			return hits[a].Confidence > hits[b].Confidence
		}
		return hits[a].Span.Start < hits[b].Span.Start
	})
	var kept []Spot
	for _, h := range hits {
		overlaps := false
		for _, k := range kept {
			if h.Span.Start < k.Span.End && k.Span.Start < h.Span.End {
				overlaps = true
				break
			}
		}
		if !overlaps {
			kept = append(kept, h)
		}
	}
	return kept
}
