package asr

import (
	"bivoc/internal/phonetics"
	"bivoc/internal/rng"
)

// ChannelConfig parameterizes the acoustic noisy channel. The paper
// (§III.A) attributes transcription noise to cross-talk, key strokes,
// breathing, hold music, false starts, channel differences and speaking
// style; here those collapse into phone-level substitution, deletion and
// insertion rates plus burst noise that wipes short spans (cross-talk).
type ChannelConfig struct {
	// SubProb is the per-phone probability of substitution.
	SubProb float64
	// SameClassBias is the probability that a substitution stays within
	// the articulatory class (vowels for vowels, stops for stops...).
	SameClassBias float64
	// DelProb is the per-phone deletion probability.
	DelProb float64
	// InsProb is the probability of inserting a spurious phone after each
	// true phone.
	InsProb float64
	// BurstProb is the per-phone probability that a cross-talk burst
	// begins; a burst replaces the next BurstLen phones with random ones.
	BurstProb float64
	// BurstLen is the length of a cross-talk burst in phones.
	BurstLen int
}

// Predefined channel operating points.
var (
	// CleanChannel approximates read speech in a quiet room.
	CleanChannel = ChannelConfig{
		SubProb: 0.04, SameClassBias: 0.85, DelProb: 0.02, InsProb: 0.01,
		BurstProb: 0.000, BurstLen: 3,
	}
	// TelephoneChannel approximates conversational telephone speech,
	// the 20-40% WER regime the paper cites from the literature.
	TelephoneChannel = ChannelConfig{
		SubProb: 0.12, SameClassBias: 0.8, DelProb: 0.05, InsProb: 0.03,
		BurstProb: 0.004, BurstLen: 3,
	}
	// CallCenterChannel is the paper's operating point: call-centre audio
	// with cross-talk, key strokes and hold music, landing near Table I
	// (45% overall WER).
	CallCenterChannel = ChannelConfig{
		SubProb: 0.14, SameClassBias: 0.75, DelProb: 0.06, InsProb: 0.04,
		BurstProb: 0.010, BurstLen: 4,
	}
)

// Channel corrupts phone sequences under a config.
type Channel struct {
	cfg ChannelConfig
}

// NewChannel returns a channel with the given config.
func NewChannel(cfg ChannelConfig) *Channel {
	if cfg.BurstLen <= 0 {
		cfg.BurstLen = 3
	}
	return &Channel{cfg: cfg}
}

// Config returns the channel's configuration.
func (ch *Channel) Config() ChannelConfig { return ch.cfg }

// substitute picks a replacement phone for p, staying within p's
// articulatory class with probability SameClassBias.
func (ch *Channel) substitute(r *rng.RNG, p phonetics.Phone) phonetics.Phone {
	if r.Bool(ch.cfg.SameClassBias) {
		members := phonetics.ClassMembers(phonetics.ClassOf(p))
		if len(members) > 1 {
			for {
				q := rng.Pick(r, members)
				if q != p {
					return q
				}
			}
		}
	}
	for {
		q := rng.Pick(r, phonetics.AllPhones())
		if q != p {
			return q
		}
	}
}

// Corrupt passes phones through the channel, returning the observed
// sequence. The input is not modified.
func (ch *Channel) Corrupt(r *rng.RNG, phones []phonetics.Phone) []phonetics.Phone {
	out := make([]phonetics.Phone, 0, len(phones)+4)
	burst := 0
	for _, p := range phones {
		if burst == 0 && r.Bool(ch.cfg.BurstProb) {
			burst = ch.cfg.BurstLen
		}
		switch {
		case burst > 0:
			burst--
			// Cross-talk: the true phone is masked by another speaker.
			out = append(out, rng.Pick(r, phonetics.AllPhones()))
		case r.Bool(ch.cfg.DelProb):
			// dropped
		case r.Bool(ch.cfg.SubProb):
			out = append(out, ch.substitute(r, p))
		default:
			out = append(out, p)
		}
		if r.Bool(ch.cfg.InsProb) {
			out = append(out, rng.Pick(r, phonetics.AllPhones()))
		}
	}
	return out
}

// EmissionModel gives the decoder's view of the channel: log-likelihoods
// of observing phone o when the lexicon expects phone p, plus insertion
// and deletion log-penalties. It is derived from a ChannelConfig so the
// decoder is matched (but not oracle-matched: it has no access to the
// realized noise, only the rates).
type EmissionModel struct {
	match    float64                  // log P(observe p | true p)
	subSame  float64                  // log P per same-class substitute
	subDiff  float64                  // log P per cross-class substitute
	logDel   float64                  // log P(phone deleted)
	logIns   float64                  // log P(spurious phone)
	sameSets [phonetics.NumPhones]int // size of each phone's class
}

// NewEmissionModel derives decoding likelihoods from channel rates.
func NewEmissionModel(cfg ChannelConfig) *EmissionModel {
	// Effective substitution probability folds in burst corruption.
	sub := cfg.SubProb + cfg.BurstProb*float64(cfg.BurstLen)
	if sub > 0.45 {
		sub = 0.45
	}
	if sub < 1e-4 {
		sub = 1e-4
	}
	del := cfg.DelProb
	if del < 1e-4 {
		del = 1e-4
	}
	ins := cfg.InsProb
	if ins < 1e-4 {
		ins = 1e-4
	}
	m := &EmissionModel{}
	pMatch := 1 - sub
	// Substitution mass splits SameClassBias within class, rest across.
	for p := 0; p < phonetics.NumPhones; p++ {
		m.sameSets[p] = len(phonetics.ClassMembers(phonetics.ClassOf(phonetics.Phone(p))))
	}
	// Log-space; class sizes are folded in per-phone in Score because the
	// class size varies, so store the shared pieces here.
	m.match = logf(pMatch)
	m.subSame = logf(sub * cfg.SameClassBias)
	m.subDiff = logf(sub * (1 - cfg.SameClassBias) / float64(phonetics.NumPhones-2))
	m.logDel = logf(del)
	m.logIns = logf(ins / float64(phonetics.NumPhones-1))
	return m
}

func logf(v float64) float64 {
	if v <= 0 {
		v = 1e-12
	}
	return ln(v)
}

// Score returns log P(observed | expected).
func (m *EmissionModel) Score(observed, expected phonetics.Phone) float64 {
	if observed == expected {
		return m.match
	}
	if phonetics.ClassOf(observed) == phonetics.ClassOf(expected) {
		n := m.sameSets[expected] - 1
		if n < 1 {
			n = 1
		}
		return m.subSame - ln(float64(n))
	}
	return m.subDiff
}

// DeletionPenalty returns the log-penalty for advancing the lexicon trie
// without consuming an observed phone.
func (m *EmissionModel) DeletionPenalty() float64 { return m.logDel }

// InsertionPenalty returns the log-penalty for consuming an observed
// phone without advancing the trie.
func (m *EmissionModel) InsertionPenalty() float64 { return m.logIns }
