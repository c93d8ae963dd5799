package synth

import (
	"strings"

	"bivoc/internal/asr"
	"bivoc/internal/lm"
)

// generalEnglish is a tiny general-purpose corpus standing in for the
// "general purpose US English text" component of the interpolated LM.
var generalEnglish = []string{
	"the weather is nice today",
	"i am going to the market",
	"she said it would rain later",
	"we watched a movie last night",
	"the meeting starts at nine",
	"he works in the city",
	"they have two children",
	"please close the door",
	"the train was late again",
	"can you hear me now",
	"it is a long way home",
	"the food was very good",
}

// BuildLexicon assembles the recognizer lexicon for the car-rental
// domain: template words (generic), customer and agent name inventories
// (name class), spoken digits (digit class) and city words (place
// class). Names deliberately include the full confusable inventory, not
// just the generated customers — "the number of conflicting words in the
// vocabulary is very high ... when it comes to recognizing names"
// (§IV.A.1).
func BuildLexicon() *asr.Lexicon {
	lex := asr.NewLexicon()
	// Registration order matters because the first class wins on shared
	// words: digit words first (templates mention "two days"), then
	// generic template vocabulary, then places, then names — so a word
	// like "price" that is both a surname and a template word stays
	// generic, matching its dominant use in the conversations.
	lex.AddAll([]string{"zero", "one", "two", "three", "four", "five",
		"six", "seven", "eight", "nine", "oh"}, asr.ClassDigit)
	lex.AddAll(TemplateWords(), asr.ClassGeneric)
	lex.AddAll(BankingWords(), asr.ClassGeneric)
	lex.AddAll(CityWords(), asr.ClassPlace)
	lex.AddAll(givenNames, asr.ClassName)
	lex.AddAll(surnames, asr.ClassName)
	lex.AddAll(ConfusableNameVariants(3), asr.ClassName)
	return lex
}

// BuildLanguageModelOrder trains the interpolated N-gram LM of §IV.A.1
// at the given order (2 = the paper's configuration; 3 enables trigram
// decoding; 1 is the no-context baseline for the LM-order ablation): a
// domain model from call-centre sentences and a general model from
// generic English, "with high weight given to the call-center specific
// model". Name and digit slots are covered by synthetic identity
// sentences over the whole name inventory so every lexicon word has LM
// mass.
func BuildLanguageModelOrder(order int) (lm.Model, error) {
	domain := lm.NewTrainer(order)
	// Replicate the conversational corpus: higher counts on generic
	// bigrams shrink the Witten-Bell backoff weight, which keeps the
	// large name inventory from leaking into non-name contexts (names
	// should be confusable after "name is", not in the middle of "book a
	// car").
	for i := 0; i < 5; i++ {
		domain.AddCorpus(TrainingSentences())
		domain.AddCorpus(BankingSentences())
	}
	// Give every name unigram/bigram support in identity contexts.
	for i, g := range givenNames {
		domain.Add([]string{"my", "name", "is", g, surnames[i%len(surnames)]})
	}
	for _, s := range surnames {
		domain.Add([]string{"name", "is", s})
	}
	// Conflicting-name competitors need language-model mass too, or the
	// decoder would never propose them and names would be artificially
	// easy (see Table I's 65% name WER and §IV.A.1's discussion).
	for _, v := range ConfusableNameVariants(3) {
		domain.Add([]string{"name", "is", v})
	}
	for _, c := range cities {
		domain.Add(append([]string{"in"}, strings.Fields(c)...))
	}
	// Digit strings are read out in long runs; give the full digit bigram
	// matrix support so numbers decode at the paper's ~45% rather than
	// collapsing entirely.
	digits := []string{"zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine"}
	for i := range digits {
		row := []string{"number", "is"}
		for j := range digits {
			if (i+j)%2 == 0 {
				row = append(row, digits[i], digits[j])
			}
		}
		domain.Add(row)
	}
	domainModel, err := domain.Build()
	if err != nil {
		return nil, err
	}
	general := lm.NewTrainer(order)
	for _, s := range generalEnglish {
		general.Add(strings.Fields(s))
	}
	generalModel, err := general.Build()
	if err != nil {
		return nil, err
	}
	return lm.NewInterpolated(
		[]lm.Model{domainModel, generalModel},
		[]float64{0.85, 0.15},
	)
}

// BuildRecognizer assembles the full first-pass recognizer at the given
// channel operating point.
func BuildRecognizer(channel asr.ChannelConfig, decoderCfg asr.DecoderConfig) (*asr.Recognizer, error) {
	return BuildRecognizerOrder(channel, decoderCfg, 2)
}

// BuildRecognizerOrder assembles a recognizer with an LM of the given
// N-gram order.
func BuildRecognizerOrder(channel asr.ChannelConfig, decoderCfg asr.DecoderConfig, order int) (*asr.Recognizer, error) {
	model, err := BuildLanguageModelOrder(order)
	if err != nil {
		return nil, err
	}
	return asr.NewRecognizer(BuildLexicon(), model, asr.NewChannel(channel), decoderCfg), nil
}
