package asr

import (
	"bivoc/internal/phonetics"
	"bivoc/internal/rng"
)

// AlignOp is one cell of a word-level alignment.
type AlignOp uint8

// Alignment operations.
const (
	OpMatch AlignOp = iota
	OpSub
	OpDel // reference word missing from hypothesis
	OpIns // hypothesis word not in reference
)

// AlignedPair is one step of the reference/hypothesis alignment. Ref is
// empty for insertions; Hyp is empty for deletions.
type AlignedPair struct {
	Op  AlignOp
	Ref string
	Hyp string
}

// Align computes a minimum-edit-distance word alignment between the
// reference and hypothesis transcripts (the alignment Equation 1 of the
// paper is defined over).
func Align(ref, hyp []string) []AlignedPair {
	lr, lh := len(ref), len(hyp)
	// dp[i][j] = edit distance between ref[:i] and hyp[:j].
	dp := make([][]int, lr+1)
	for i := range dp {
		dp[i] = make([]int, lh+1)
		dp[i][0] = i
	}
	for j := 0; j <= lh; j++ {
		dp[0][j] = j
	}
	for i := 1; i <= lr; i++ {
		for j := 1; j <= lh; j++ {
			cost := 1
			if ref[i-1] == hyp[j-1] {
				cost = 0
			}
			m := dp[i-1][j-1] + cost
			if v := dp[i-1][j] + 1; v < m {
				m = v
			}
			if v := dp[i][j-1] + 1; v < m {
				m = v
			}
			dp[i][j] = m
		}
	}
	// Backtrace, preferring diagonal moves so matches align naturally.
	var rev []AlignedPair
	i, j := lr, lh
	for i > 0 || j > 0 {
		switch {
		case i > 0 && j > 0 && ref[i-1] == hyp[j-1] && dp[i][j] == dp[i-1][j-1]:
			rev = append(rev, AlignedPair{OpMatch, ref[i-1], hyp[j-1]})
			i--
			j--
		case i > 0 && j > 0 && dp[i][j] == dp[i-1][j-1]+1:
			rev = append(rev, AlignedPair{OpSub, ref[i-1], hyp[j-1]})
			i--
			j--
		case i > 0 && dp[i][j] == dp[i-1][j]+1:
			rev = append(rev, AlignedPair{OpDel, ref[i-1], ""})
			i--
		default:
			rev = append(rev, AlignedPair{OpIns, "", hyp[j-1]})
			j--
		}
	}
	for a, b := 0, len(rev)-1; a < b; a, b = a+1, b-1 {
		rev[a], rev[b] = rev[b], rev[a]
	}
	return rev
}

// WERStats accumulates word-error-rate counts: Equation 1 of the paper,
// WER = (S + D + I) / N.
type WERStats struct {
	Sub, Del, Ins int
	RefWords      int
}

// Add accumulates the alignment of one utterance.
func (w *WERStats) Add(pairs []AlignedPair) {
	for _, p := range pairs {
		switch p.Op {
		case OpSub:
			w.Sub++
			w.RefWords++
		case OpDel:
			w.Del++
			w.RefWords++
		case OpIns:
			w.Ins++
		case OpMatch:
			w.RefWords++
		}
	}
}

// WER returns (S+D+I)/N, or 0 when no reference words were seen.
func (w *WERStats) WER() float64 {
	if w.RefWords == 0 {
		return 0
	}
	return float64(w.Sub+w.Del+w.Ins) / float64(w.RefWords)
}

// ClassWER scores error rates per word class, attributing substitutions
// and deletions to the class of the reference word and insertions to the
// class of the preceding reference word (generic at utterance start).
// This is how Table I separates "Entire Speech", "Names" and "Numbers".
type ClassWER struct {
	lex   *Lexicon
	stats map[WordClass]*WERStats
	all   WERStats
}

// NewClassWER returns a scorer that classifies words through lex.
func NewClassWER(lex *Lexicon) *ClassWER {
	return &ClassWER{lex: lex, stats: make(map[WordClass]*WERStats)}
}

func (c *ClassWER) classStats(cl WordClass) *WERStats {
	s, ok := c.stats[cl]
	if !ok {
		s = &WERStats{}
		c.stats[cl] = s
	}
	return s
}

// Add scores one utterance pair.
func (c *ClassWER) Add(ref, hyp []string) {
	pairs := Align(ref, hyp)
	c.all.Add(pairs)
	lastClass := ClassGeneric
	for _, p := range pairs {
		switch p.Op {
		case OpMatch:
			cl := c.lex.ClassOfWord(p.Ref)
			st := c.classStats(cl)
			st.RefWords++
			lastClass = cl
		case OpSub:
			cl := c.lex.ClassOfWord(p.Ref)
			st := c.classStats(cl)
			st.Sub++
			st.RefWords++
			lastClass = cl
		case OpDel:
			cl := c.lex.ClassOfWord(p.Ref)
			st := c.classStats(cl)
			st.Del++
			st.RefWords++
			lastClass = cl
		case OpIns:
			c.classStats(lastClass).Ins++
		}
	}
}

// Overall returns the aggregate WER across all classes.
func (c *ClassWER) Overall() float64 { return c.all.WER() }

// ForClass returns the WER restricted to one word class (0 if the class
// never appeared in a reference).
func (c *ClassWER) ForClass(cl WordClass) float64 {
	if s, ok := c.stats[cl]; ok {
		return s.WER()
	}
	return 0
}

// Transcribe runs the full pipeline on one reference utterance: phones →
// channel → decode. Out-of-lexicon reference words make it fail.
func (r *Recognizer) Transcribe(rnd *rng.RNG, ref []string) ([]string, error) {
	phones, err := r.Lex.Phones(ref)
	if err != nil {
		return nil, err
	}
	observed := r.Channel.Corrupt(rnd, phones)
	return r.decoder.Decode(observed), nil
}

// TranscribePhones decodes an already-corrupted phone sequence.
func (r *Recognizer) TranscribePhones(observed []phonetics.Phone) []string {
	return r.decoder.Decode(observed)
}

// WordAccuracy returns the fraction of reference words of class cl that
// were exactly recovered (by position-independent alignment), across the
// corpus of (ref, hyp) pairs. The second-pass experiment reports name
// accuracy improvement in these terms ("10% absolute").
func WordAccuracy(lex *Lexicon, refs, hyps [][]string, cl WordClass) float64 {
	total, correct := 0, 0
	for i := range refs {
		var hyp []string
		if i < len(hyps) {
			hyp = hyps[i]
		}
		for _, p := range Align(refs[i], hyp) {
			switch p.Op {
			case OpMatch:
				if lex.ClassOfWord(p.Ref) == cl {
					total++
					correct++
				}
			case OpSub, OpDel:
				if lex.ClassOfWord(p.Ref) == cl {
					total++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}
