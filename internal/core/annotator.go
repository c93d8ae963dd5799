// Package core wires the BIVoC subsystems into the full pipeline of
// Figure 3 — data processing (ASR / cleaning) → data linking →
// annotation → indexing & reporting — and drives the paper's two use
// cases: agent-productivity improvement in a car-rental contact centre
// (§V, Tables III/IV, the training A/B of §V.C) and churn prediction for
// a wireless telecom (§VI). The ASR evaluation of Table I and the
// constrained second pass of §IV.A.1 are also orchestrated here so the
// benchmark harness and the CLI share one implementation.
package core

import (
	"strings"

	"bivoc/internal/annotate"
	"bivoc/internal/synth"
)

// Semantic categories used by the car-rental analysis.
const (
	CatIntent   = "customer intention"
	CatValue    = "value selling"
	CatDiscount = "discount"
	CatVehicle  = "vehicle type"
	CatPlace    = "place"
)

// Intent concept canonical forms.
const (
	IntentStrongConcept = "strong start"
	IntentWeakConcept   = "weak start"
)

// BuildCarRentalAnnotator assembles the §V annotation engine: the domain
// dictionary (vehicle indicators with canonical forms, cities, discount
// vocabulary) plus the value-selling patterns of §V.A.
func BuildCarRentalAnnotator() *annotate.Engine {
	dict := annotate.NewDictionary()
	for surface, canonical := range synth.VehicleIndicators() {
		dict.Add(annotate.Entry{Surface: surface, PoS: annotate.PoSNoun, Canonical: canonical, Category: CatVehicle})
	}
	for _, city := range synth.Cities() {
		dict.Add(annotate.Entry{Surface: city, PoS: annotate.PoSProperNoun, Canonical: city, Category: CatPlace})
	}
	// Discount-relating phrases are "registered into the domain
	// dictionary as discount-related phrases" (§V.A).
	for _, surface := range []string{
		"discount", "corporate program", "motor club", "buying club",
	} {
		dict.Add(annotate.Entry{Surface: surface, PoS: annotate.PoSNoun, Canonical: "discount", Category: CatDiscount})
	}
	en := annotate.NewEngine(dict)
	// Value-selling phrases are pattern-extracted (§V.A: "we extract
	// phrases mentioning good rate and good vehicle by matching
	// patterns"). Single-anchor patterns survive ASR noise better than
	// long surfaces.
	for _, adj := range []string{"good", "great", "wonderful", "fantastic", "low"} {
		for _, noun := range []string{"rate", "price", "car", "amount", "model"} {
			en.AddPattern(annotate.Pattern{
				Name:     "value-" + adj + "-" + noun,
				Elems:    []annotate.Elem{annotate.Lit(adj), annotate.Lit(noun)},
				Label:    "mention of good " + noun,
				Category: CatValue,
			})
		}
	}
	en.AddPattern(annotate.Pattern{
		Name:     "value-save-money",
		Elems:    []annotate.Elem{annotate.Lit("save"), annotate.Lit("money")},
		Label:    "mention of good rate",
		Category: CatValue,
	})
	en.AddPattern(annotate.Pattern{
		Name:     "value-latest-model",
		Elems:    []annotate.Elem{annotate.Lit("latest"), annotate.Lit("model")},
		Label:    "mention of good vehicle",
		Category: CatValue,
	})
	return en
}

// strong / weak cue inventories for intent classification. The §V.A
// patterns ("would like to make a booking" vs "can i know the rates")
// reduce, on noisy transcripts, to the presence of commitment verbs
// versus rate-enquiry words in the opening utterances.
var strongCues = map[string]bool{
	"booking": true, "book": true, "reservation": true, "reserve": true,
	"pick": true, "need": true,
}

var weakCues = map[string]bool{
	"rates": true, "rate": true, "much": true, "cost": true, "know": true,
	"what": true,
}

// openingWindow is how many words of the transcript count as the
// "customer's first or second utterance" (§V.A) for intent extraction.
// Transcripts open with the agent greeting (~12 words), so the window
// spans the greeting plus the customer's opening.
const openingWindow = 26

// ClassifyIntent extracts the customer intention at start of call from a
// transcript, per §V.A: Strong start (wants to book) vs Weak start
// (asks about rates). It returns "" when neither pattern fires (e.g.
// service calls).
func ClassifyIntent(transcript []string) string {
	n := len(transcript)
	if n > openingWindow {
		n = openingWindow
	}
	strong, weak := 0, 0
	for _, w := range transcript[:n] {
		if strongCues[w] {
			strong++
		}
		if weakCues[w] {
			weak++
		}
	}
	switch {
	case strong == 0 && weak == 0:
		return ""
	case weak > strong:
		return IntentWeakConcept
	case strong > weak:
		return IntentStrongConcept
	default:
		// Tie: rate-enquiry words alongside booking words read as a rate
		// enquiry ("can i know the rates for booking a car").
		return IntentWeakConcept
	}
}

// AnnotateTranscript runs the annotation engine over a transcript and
// prepends the intent concept when one is detected.
func AnnotateTranscript(en *annotate.Engine, transcript []string) []annotate.Concept {
	text := strings.Join(transcript, " ")
	concepts := en.Annotate(text)
	if intent := ClassifyIntent(transcript); intent != "" {
		concepts = append([]annotate.Concept{{
			Canonical: intent, Category: CatIntent, Start: 0, End: 1,
		}}, concepts...)
	}
	return concepts
}
