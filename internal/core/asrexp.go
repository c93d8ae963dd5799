package core

import (
	"strings"

	"bivoc/internal/asr"
	"bivoc/internal/linker"
	"bivoc/internal/rng"
	"bivoc/internal/synth"
	"bivoc/internal/warehouse"
)

// ASRExperimentConfig drives the Table I measurement: per-entity-class
// word error rates of the recognizer at Table I's channel operating point,
// asr.CallCenterChannel.
type ASRExperimentConfig struct {
	World    synth.CarRentalConfig
	NumCalls int
	Decoder  asr.DecoderConfig
	// LMOrder is the language-model N-gram order (default 2, the paper's
	// configuration; 1 and 3 support the LM-order ablation).
	LMOrder int
}

// DefaultASRExperimentConfig returns the Table I configuration.
func DefaultASRExperimentConfig() ASRExperimentConfig {
	world := synth.DefaultCarRentalConfig()
	world.CallsPerDay = 1
	world.Days = 0
	return ASRExperimentConfig{
		World:    world,
		NumCalls: 120,
		Decoder:  asr.DefaultDecoderConfig(),
	}
}

// ASRResult holds Table I: WER for entire speech, names, and numbers.
type ASRResult struct {
	Overall float64
	Names   float64
	Numbers float64
	// Utterances and RefWords describe the evaluation corpus.
	Utterances int
	RefWords   int
}

// RunASRExperiment transcribes NumCalls generated conversations through
// the noisy channel and scores WER per entity class. As in the paper's
// evaluation, the corpus mixes the car-booking and banking domains.
func RunASRExperiment(cfg ASRExperimentConfig) (*ASRResult, error) {
	world, err := synth.NewCarRentalWorld(cfg.World)
	if err != nil {
		return nil, err
	}
	order := cfg.LMOrder
	if order <= 0 {
		order = 2
	}
	rec, err := synth.BuildRecognizerOrder(asr.CallCenterChannel, cfg.Decoder, order)
	if err != nil {
		return nil, err
	}
	carCalls := cfg.NumCalls - cfg.NumCalls/3
	world.Config.CallsPerDay = carCalls
	calls := world.GenerateCalls(0, 1)
	var refs [][]string
	var ids []string
	for _, c := range calls {
		refs = append(refs, c.Transcript)
		ids = append(ids, c.ID)
	}
	for _, c := range world.GenerateBankingCalls(cfg.NumCalls / 3) {
		refs = append(refs, c.Transcript)
		ids = append(ids, c.ID)
	}
	scorer := asr.NewClassWER(rec.Lex)
	noiseRnd := rng.New(cfg.World.Seed).SplitString("table1")
	refWords := 0
	for i, ref := range refs {
		hyp, err := rec.Transcribe(noiseRnd.SplitString(ids[i]), ref)
		if err != nil {
			return nil, err
		}
		scorer.Add(ref, hyp)
		refWords += len(ref)
	}
	return &ASRResult{
		Overall:    scorer.Overall(),
		Names:      scorer.ForClass(asr.ClassName),
		Numbers:    scorer.ForClass(asr.ClassDigit),
		Utterances: len(refs),
		RefWords:   refWords,
	}, nil
}

// SecondPassConfig drives the §IV.A.1 improvement experiment: link the
// first-pass transcript to the customer database, take the top-N
// candidate identities, and re-decode with the name vocabulary
// restricted to those candidates. The audio passes through Table I's
// channel, asr.CallCenterChannel.
type SecondPassConfig struct {
	World    synth.CarRentalConfig
	NumCalls int
	Decoder  asr.DecoderConfig
	TopN     int
}

// minIdentityScore gates the second pass: the constrained re-decode runs
// only when the best database match scores at least this much (≈1.0
// means both name parts, or a name plus phone evidence, matched). Below
// the gate, linking is too uncertain to narrow the name vocabulary
// safely.
const minIdentityScore = 0.45

// DefaultSecondPassConfig returns the paper-shaped configuration.
func DefaultSecondPassConfig() SecondPassConfig {
	world := synth.DefaultCarRentalConfig()
	world.CallsPerDay = 1
	world.Days = 0
	return SecondPassConfig{
		World:    world,
		NumCalls: 120,
		Decoder:  asr.DefaultDecoderConfig(),
		TopN:     8,
	}
}

// SecondPassResult reports name-recognition accuracy before and after
// the constrained second pass. The paper: "using this method we could
// improve the accuracy of the name recognition by 10% absolute".
type SecondPassResult struct {
	FirstPassNameAcc  float64
	SecondPassNameAcc float64
	Improvement       float64 // absolute
	// LinkedCalls counts calls whose first pass yielded DB candidates.
	LinkedCalls int
	Calls       int
}

// NewCustomerLinker builds the linking engine over a car-rental world's
// customer table. Name and phone identify; the rental city corroborates
// (many customers share a city, so it carries a reduced weight — the
// §IV.B weights are exactly this dial, normally EM-learned).
func NewCustomerLinker(db *warehouse.DB) (*linker.Engine, error) {
	e, err := linker.NewEngine(db, linker.Config{Targets: map[linker.TokenType][]linker.Attribute{
		linker.TokName: {
			{Table: "customers", Column: "name"},
		},
		linker.TokDigits: {
			{Table: "customers", Column: "phone"},
			{Table: "customers", Column: "dob"},
		},
		linker.TokPlace: {
			{Table: "customers", Column: "city"},
		},
	}})
	if err != nil {
		return nil, err
	}
	e.SetWeight(linker.Attribute{Table: "customers", Column: "name"}, 0.5)
	e.SetWeight(linker.Attribute{Table: "customers", Column: "phone"}, 0.5)
	e.SetWeight(linker.Attribute{Table: "customers", Column: "dob"}, 0.4)
	e.SetWeight(linker.Attribute{Table: "customers", Column: "city"}, 0.2)
	return e, nil
}

// NewCarRentalAnnotators builds the token annotators for the car-rental
// domain: the full name inventory and city lexicon.
func NewCarRentalAnnotators() *linker.Annotators {
	names := append(synth.GivenNames(), synth.Surnames()...)
	return linker.NewAnnotators(names, synth.Cities())
}

// RunSecondPassExperiment measures first- versus second-pass name
// accuracy over NumCalls conversations.
func RunSecondPassExperiment(cfg SecondPassConfig) (*SecondPassResult, error) {
	world, err := synth.NewCarRentalWorld(cfg.World)
	if err != nil {
		return nil, err
	}
	rec, err := synth.BuildRecognizer(asr.CallCenterChannel, cfg.Decoder)
	if err != nil {
		return nil, err
	}
	engine, err := NewCustomerLinker(world.DB)
	if err != nil {
		return nil, err
	}
	annotators := NewCarRentalAnnotators()
	world.Config.CallsPerDay = cfg.NumCalls
	calls := world.GenerateCalls(0, 1)
	noiseRnd := rng.New(cfg.World.Seed).SplitString("secondpass")

	res := &SecondPassResult{Calls: len(calls)}
	var refs, firstHyps, secondHyps [][]string
	for _, call := range calls {
		phones, err := rec.Lex.Phones(call.Transcript)
		if err != nil {
			return nil, err
		}
		obs := rec.Channel.Corrupt(noiseRnd.SplitString(call.ID), phones)
		first := rec.TranscribePhones(obs)

		// Link the partially recognized identity entities jointly
		// (§IV.A.1) to fetch the top-N candidate identities from the
		// warehouse. Only anchored identity mentions participate, and the
		// constrained pass runs only when the best match is confident.
		tokens := annotators.ExtractIdentity(strings.Join(first, " "))
		matches := engine.LinkTable(tokens, "customers", cfg.TopN)
		second := first
		if len(matches) > 0 && matches[0].Score >= minIdentityScore {
			res.LinkedCalls++
			topNames := engine.TopNames(tokens, "customers", "name", cfg.TopN)
			allowed := make(map[string]bool, len(topNames))
			for _, n := range topNames {
				allowed[n] = true
			}
			// Slot-level constrained re-decoding: each name span competes
			// only among the database candidates (plus the incumbent).
			second = rec.RescoreNames(first, obs, allowed)
		}
		refs = append(refs, call.Transcript)
		firstHyps = append(firstHyps, first)
		secondHyps = append(secondHyps, second)
	}
	res.FirstPassNameAcc = asr.WordAccuracy(rec.Lex, refs, firstHyps, asr.ClassName)
	res.SecondPassNameAcc = asr.WordAccuracy(rec.Lex, refs, secondHyps, asr.ClassName)
	res.Improvement = res.SecondPassNameAcc - res.FirstPassNameAcc
	return res, nil
}
