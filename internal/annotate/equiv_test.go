package annotate_test

import (
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"bivoc/internal/annotate"
	"bivoc/internal/churn"
	"bivoc/internal/clean"
	"bivoc/internal/core"
	"bivoc/internal/synth"
	"bivoc/internal/textproc"
)

// refAnnotateTranscript is core.AnnotateTranscript as it stood before
// the engine took tokens: join the transcript, annotate the text with
// the reference, and prepend the intent concept.
func refAnnotateTranscript(en *annotate.Engine, transcript []string) []annotate.Concept {
	concepts := annotate.RefAnnotate(en, strings.Join(transcript, " "))
	if intent := core.ClassifyIntent(transcript); intent != "" {
		concepts = append([]annotate.Concept{{
			Canonical: intent, Category: core.CatIntent, Start: 0, End: 1,
		}}, concepts...)
	}
	return concepts
}

// TestAnnotateTranscriptMatchesReference holds every call of a seeded
// car-rental world, on its reference transcript and on its agent note
// as the notes channel reads it, to the reference: the same concept
// list, nil where the reference is nil.
func TestAnnotateTranscriptMatchesReference(t *testing.T) {
	cfg := synth.DefaultCarRentalConfig()
	cfg.Seed, cfg.Days = 3133, 4
	world, err := synth.NewCarRentalWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	world.GenerateCalls(0, cfg.Days)
	en := core.BuildCarRentalAnnotator()
	cleaner := clean.NewCleaner()
	patterns, empty := 0, 0
	for _, call := range world.Calls {
		note := textproc.Words(cleaner.NormalizeSMS(world.AgentNote(call)))
		for _, ws := range [][]string{call.Transcript, note} {
			got, want := core.AnnotateTranscript(en, ws), refAnnotateTranscript(en, ws)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("call %s, words %q:\n got %v\nwant %v", call.ID, ws, got, want)
			}
			for _, c := range got {
				if c.Category == core.CatValue {
					patterns++
				}
			}
			if got == nil {
				empty++
			}
		}
	}
	if patterns == 0 || empty == 0 {
		t.Errorf("the world exercised %d pattern concepts and %d empty lists; want some of each", patterns, empty)
	}
}

// refDetectorEngine builds the engine churn.NewDriverDetector builds
// from the same seeds, for the reference to annotate with.
func refDetectorEngine(seeds map[string][]string) *annotate.Engine {
	dict := annotate.NewDictionary()
	for driver, phrases := range seeds {
		for _, phrase := range phrases {
			words := textproc.ContentWords(phrase)
			for i := 0; i+1 < len(words); i++ {
				dict.Add(annotate.Entry{
					Surface:   words[i] + " " + words[i+1],
					PoS:       annotate.PoSNoun,
					Canonical: words[i] + " " + words[i+1],
					Category:  driver,
				})
			}
		}
	}
	return annotate.NewEngine(dict)
}

// TestDriverDetectorMatchesReference holds churn.DriverDetector over
// every e-mail and SMS of a seeded telecom world, raw and cleaned, to
// the reference over the same dictionary.
func TestDriverDetectorMatchesReference(t *testing.T) {
	cfg := synth.DefaultTelecomConfig()
	cfg.Seed = 3133
	world, err := synth.NewTelecomWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seeds := synth.DriverPhraseSeed()
	det, ref := churn.NewDriverDetector(seeds), refDetectorEngine(seeds)
	cleaner := clean.NewCleaner()
	found := 0
	for _, m := range append(world.Emails, world.SMS...) {
		for _, text := range []string{m.Raw, cleaner.ProcessEmail(m.Raw).Text, cleaner.NormalizeSMS(m.Raw)} {
			got := det.Detect(text)
			want := annotate.Categories(annotate.RefAnnotate(ref, strings.Join(textproc.ContentWords(text), " ")))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("message %s, text %q:\n got %v\nwant %v", m.ID, text, got, want)
			}
			found += len(got)
		}
	}
	if found == 0 {
		t.Error("no message of the world named a driver")
	}
}

// handBuiltEngine has every shape of pattern the index must find:
// category-first, PoS-first, a literal matched through a canonical form,
// upper-case literals, an empty pattern, patterns sharing a first
// literal, patterns that overlap and repeat, and unlabelled patterns
// whose concepts tie with dictionary concepts on start, category and
// canonical form.
func handBuiltEngine() *annotate.Engine {
	d := annotate.NewDictionary()
	for _, e := range []annotate.Entry{
		{Surface: "new york", PoS: annotate.PoSProperNoun, Canonical: "New York", Category: "place"},
		{Surface: "ny", PoS: annotate.PoSProperNoun, Canonical: "New York", Category: "place"},
		{Surface: "master card", PoS: annotate.PoSNoun, Canonical: "credit card", Category: "payment"},
		{Surface: "visa", PoS: annotate.PoSNoun, Canonical: "credit card", Category: "payment"},
		{Surface: "rate", PoS: annotate.PoSNoun, Canonical: "rate", Category: "rate"},
		{Surface: "good", PoS: annotate.PoSAdjective, Canonical: "good", Category: "good"},
		{Surface: "very", PoS: annotate.PoSAdverb, Category: "very"},
		{Surface: "seat", PoS: annotate.PoSNoun, Canonical: "seat", Category: "feature"},
		{Surface: "child seat", PoS: annotate.PoSNoun, Canonical: "child seat", Category: "feature"},
	} {
		d.Add(e)
	}
	en := annotate.NewEngine(d)
	for _, p := range []annotate.Pattern{
		{Name: "category-first", Elems: []annotate.Elem{{Category: "place"}, annotate.Lit("rate")}, Label: "city rate", Category: "value"},
		{Name: "pos-first", Elems: []annotate.Elem{{PoS: annotate.PoSVerb}, {PoS: annotate.PoSNoun}}, Category: "action"},
		{Name: "any-first", Elems: []annotate.Elem{{PoS: annotate.PoSAny}, annotate.Lit("please")}, Category: "polite"},
		{Name: "canonical-literal", Elems: []annotate.Elem{annotate.Lit("credit card"), {PoS: annotate.PoSAny}}, Category: "payment"},
		{Name: "upper-literal-canonical", Elems: []annotate.Elem{{Literal: "New York"}}, Label: "new york", Category: "place"},
		{Name: "upper-literal-never", Elems: []annotate.Elem{{Literal: "Rate"}}, Category: "never"},
		{Name: "empty"},
		{Name: "good-rate", Elems: []annotate.Elem{annotate.Lit("good"), annotate.Lit("rate")}, Label: "good rate", Category: "value"},
		{Name: "good-noun", Elems: []annotate.Elem{annotate.Lit("good"), {PoS: annotate.PoSNoun}}, Category: "value"},
		{Name: "good", Elems: []annotate.Elem{annotate.Lit("good")}, Label: "good", Category: "good"},
		{Name: "very-very", Elems: []annotate.Elem{annotate.Lit("very"), annotate.Lit("very")}, Category: "very"},
		{Name: "very-any-very", Elems: []annotate.Elem{annotate.Lit("very"), {PoS: annotate.PoSAny}, annotate.Lit("very")}, Label: "very very", Category: "very"},
		{Name: "seat", Elems: []annotate.Elem{annotate.Lit("seat")}, Label: "seat", Category: "feature"},
		{Name: "number", Elems: []annotate.Elem{annotate.Lit("just"), {PoS: annotate.PoSNumeric}, annotate.Lit("dollars")}, Category: "price"},
	} {
		en.AddPattern(p)
	}
	return en
}

// TestAnnotateMatchesReferenceOnHandBuiltEngine holds Annotate to the
// reference over handBuiltEngine on hand-written texts and on seeded
// random ones long enough that the unstable sort leaves insertion sort.
func TestAnnotateMatchesReferenceOnHandBuiltEngine(t *testing.T) {
	en := handBuiltEngine()
	texts := []string{
		"",
		"...",
		"NY rate please, visa card please",
		"a very very very good rate in New York",
		"I want a child seat, the seat and a seat please",
		"book cars then rent visas: master card good good good",
		"it's just 45 dollars, just 45 DOLLARS",
		"Rate RATE rate",
	}
	vocab := strings.Fields("very good rate please ny new york visa master card child seat book rent car just 45 dollars quickly the RATE I it's , .")
	r := rand.New(rand.NewPCG(3133, 1))
	for range 3000 {
		n := r.IntN(60)
		ws := make([]string, n)
		for i := range ws {
			ws[i] = vocab[r.IntN(len(vocab))]
		}
		texts = append(texts, strings.Join(ws, " "))
	}
	hits := 0
	for _, text := range texts {
		got, want := en.Annotate(nil, textproc.Words(text)), annotate.RefAnnotate(en, text)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("text %q:\n got %v\nwant %v", text, got, want)
		}
		hits += len(got)
		// The head comes first, copied, and is not sorted with the rest.
		head := []annotate.Concept{{Canonical: "z", Category: "z", Start: 9, End: 10}}
		if got := en.Annotate(head, textproc.Words(text)); !reflect.DeepEqual(got, append(head, want...)) || &got[0] == &head[0] {
			t.Fatalf("text %q after a concept:\n got %v\nwant %v", text, got, append(head, want...))
		}
	}
	if hits == 0 {
		t.Error("no text produced a concept")
	}
}
