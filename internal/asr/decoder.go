package asr

import (
	"math"
	"sort"
	"strings"

	"bivoc/internal/lm"
	"bivoc/internal/phonetics"
)

func ln(v float64) float64 { return math.Log(v) }

// DecoderConfig tunes the beam search.
type DecoderConfig struct {
	// BeamWidth is the maximum number of live hypotheses kept per
	// observation position.
	BeamWidth int
}

// DefaultDecoderConfig returns the standard first-pass configuration.
func DefaultDecoderConfig() DecoderConfig {
	return DecoderConfig{BeamWidth: 192}
}

const (
	// wordPenalty is a log-space penalty applied at each word emission to
	// balance word insertions against deletions.
	wordPenalty = -1.2
	// epsilonRounds bounds the chains of non-consuming transitions (word
	// boundaries and phone deletions) explored per observation position.
	epsilonRounds = 3
)

// Decoder is a token-passing Viterbi beam decoder over a pronunciation
// trie with an N-gram language model.
type Decoder struct {
	lex *Lexicon
	lm  lm.Model
	em  *EmissionModel
	cfg DecoderConfig
}

// NewDecoder assembles a decoder. The emission model should be derived
// from the channel the audio passed through (estimated on held-out data
// in a real system).
func NewDecoder(lex *Lexicon, model lm.Model, em *EmissionModel, cfg DecoderConfig) *Decoder {
	if cfg.BeamWidth <= 0 {
		cfg.BeamWidth = 192
	}
	return &Decoder{lex: lex, lm: model, em: em, cfg: cfg}
}

// hyp is one live hypothesis. Word history is a persistent linked list so
// hypotheses share structure.
type hyp struct {
	node  int32  // current trie node
	hist  *wlist // emitted words (reverse order)
	last  string // last emitted word ("" at start) — the LM context
	last2 string // word before last, used when the LM is a trigram
	score float64
	key   string // cached state key, set when offered to a beam
}

// lmContext returns the history the LM should condition on.
func (d *Decoder) lmContext(h *hyp) []string {
	if d.lm.Order() >= 3 && h.last2 != "" {
		return []string{h.last2, h.last}
	}
	if h.last != "" {
		return []string{h.last}
	}
	return nil
}

type wlist struct {
	word string
	prev *wlist
}

func (w *wlist) slice() []string {
	var rev []string
	for n := w; n != nil; n = n.prev {
		rev = append(rev, n.word)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

type beam struct {
	byKey map[string]*hyp
}

func newBeam() *beam { return &beam{byKey: make(map[string]*hyp)} }

func stateKey(node int32, last, last2 string) string {
	var b strings.Builder
	b.Grow(14 + len(last) + len(last2))
	b.WriteString(last2)
	b.WriteByte(1)
	b.WriteString(last)
	b.WriteByte(0)
	// Encode the node id compactly.
	n := node
	for {
		b.WriteByte(byte('0' + n%10))
		n /= 10
		if n == 0 {
			break
		}
	}
	return b.String()
}

// offer merges h into the beam, keeping the best score per state. Equal
// scores keep the incumbent, which is deterministic because expansion
// order is deterministic (sorted beams, sorted trie edges, insertion-
// ordered homophone lists).
func (bm *beam) offer(h *hyp) {
	h.key = stateKey(h.node, h.last, h.last2)
	if cur, ok := bm.byKey[h.key]; !ok || h.score > cur.score {
		bm.byKey[h.key] = h
	}
}

// sortHyps orders hypotheses by score descending with a total tie-break
// on the state key, so pruning is reproducible.
func sortHyps(hs []*hyp) {
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].score != hs[j].score {
			return hs[i].score > hs[j].score
		}
		return hs[i].key < hs[j].key
	})
}

// prune keeps the top-width hypotheses.
func (bm *beam) prune(width int) []*hyp {
	hs := make([]*hyp, 0, len(bm.byKey))
	for _, h := range bm.byKey {
		hs = append(hs, h)
	}
	sortHyps(hs)
	if len(hs) > width {
		hs = hs[:width]
	}
	return hs
}

// emitWords expands word-boundary transitions from h (if its node ends
// any words), offering the successors to out.
func (d *Decoder) emitWords(h *hyp, out *beam) {
	for _, id := range d.lex.nodes[h.node].words {
		word := d.lex.words[id]
		lp := d.lm.LogProb(d.lmContext(h), word)
		last2 := ""
		if d.lm.Order() >= 3 {
			last2 = h.last
		}
		out.offer(&hyp{
			node:  0,
			hist:  &wlist{word: word, prev: h.hist},
			last:  word,
			last2: last2,
			score: h.score + lp + wordPenalty,
		})
	}
}

// deletions expands a single trie advance without consuming observation.
func (d *Decoder) deletions(h *hyp, out *beam) {
	pen := d.em.DeletionPenalty()
	for _, e := range d.lex.nodes[h.node].edges {
		out.offer(&hyp{node: e.next, hist: h.hist, last: h.last, last2: h.last2, score: h.score + pen})
	}
}

// closure applies word emissions and deletions up to epsilonRounds times,
// pruning between rounds.
func (d *Decoder) closure(hs []*hyp) []*hyp {
	bm := newBeam()
	for _, h := range hs {
		bm.offer(h)
	}
	frontier := hs
	for round := 0; round < epsilonRounds; round++ {
		next := newBeam()
		for _, h := range frontier {
			d.emitWords(h, next)
			d.deletions(h, next)
		}
		var fresh []*hyp
		for k, h := range next.byKey {
			if cur, ok := bm.byKey[k]; !ok || h.score > cur.score {
				bm.byKey[k] = h
				fresh = append(fresh, h)
			}
		}
		if len(fresh) == 0 {
			break
		}
		sortHyps(fresh)
		if len(fresh) > d.cfg.BeamWidth {
			fresh = fresh[:d.cfg.BeamWidth]
		}
		frontier = fresh
	}
	return bm.prune(d.cfg.BeamWidth)
}

// Decode returns the best word sequence for the observed phones. An
// empty observation decodes to nil.
func (d *Decoder) Decode(observed []phonetics.Phone) []string {
	nbest := d.DecodeNBest(observed, 1)
	if len(nbest) == 0 {
		return nil
	}
	return nbest[0].Words
}

// Hypothesis is one N-best entry.
type Hypothesis struct {
	Words []string
	// Score is the total log-probability (acoustic + LM + penalties).
	Score float64
}

// DecodeNBest returns up to n complete-word hypotheses, best first. The
// list comes from the final beam, so it is a beam-limited N-best (as in
// multi-pass LVCSR systems, where a compact first-pass list feeds
// rescoring passes — the paper's §III mentions multi-pass recognition
// among the costly steps fast systems skip).
func (d *Decoder) DecodeNBest(observed []phonetics.Phone, n int) []Hypothesis {
	if len(observed) == 0 || n <= 0 {
		return nil
	}
	current := d.closure([]*hyp{{node: 0, last: "", score: 0}})
	insPen := d.em.InsertionPenalty()
	for _, o := range observed {
		next := newBeam()
		for _, h := range current {
			// Consume o by advancing a trie edge (match or substitution).
			for _, e := range d.lex.nodes[h.node].edges {
				next.offer(&hyp{
					node:  e.next,
					hist:  h.hist,
					last:  h.last,
					last2: h.last2,
					score: h.score + d.em.Score(o, e.phone),
				})
			}
			// Consume o as a spurious insertion.
			next.offer(&hyp{node: h.node, hist: h.hist, last: h.last, last2: h.last2, score: h.score + insPen})
		}
		current = d.closure(next.prune(d.cfg.BeamWidth))
	}
	// Final: hypotheses must sit at the trie root (all words complete);
	// apply the end-of-sentence LM transition.
	var finals []*hyp
	for _, h := range current {
		if h.node != 0 {
			continue
		}
		finals = append(finals, &hyp{
			node: 0, hist: h.hist, last: h.last, last2: h.last2, key: h.key,
			score: h.score + d.lm.LogProb(d.lmContext(h), lm.EOS),
		})
	}
	sortHyps(finals)
	if len(finals) > n {
		finals = finals[:n]
	}
	out := make([]Hypothesis, 0, len(finals))
	for _, h := range finals {
		if math.IsInf(h.score, -1) {
			continue
		}
		out = append(out, Hypothesis{Words: h.hist.slice(), Score: h.score})
	}
	return out
}

// Recognizer bundles lexicon, channel, emission model, LM and decoder
// configuration into the full ASR pipeline used by the BIVoC experiments:
// reference words → phones → noisy channel → decode → transcript.
type Recognizer struct {
	Lex     *Lexicon
	Model   lm.Model
	Channel *Channel
	decoder *Decoder
}

// NewRecognizer builds a recognizer whose decoder emission model matches
// the channel configuration.
func NewRecognizer(lex *Lexicon, model lm.Model, ch *Channel, cfg DecoderConfig) *Recognizer {
	em := NewEmissionModel(ch.Config())
	return &Recognizer{
		Lex: lex, Model: model, Channel: ch,
		decoder: NewDecoder(lex, model, em, cfg),
	}
}
