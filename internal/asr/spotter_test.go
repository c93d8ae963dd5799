package asr

import (
	"strings"
	"testing"

	"bivoc/internal/lm"
	"bivoc/internal/phonetics"
	"bivoc/internal/rng"
)

func spotterSetup(t *testing.T) (*Spotter, *Recognizer) {
	t.Helper()
	lex, _ := testSetup(t)
	tr := lm.NewTrainer(2)
	tr.Add(strings.Fields("i want a discount please"))
	model, err := tr.Build()
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecognizer(lex, model, NewChannel(CallCenterChannel), DefaultDecoderConfig())
	return NewSpotter(lex), rec
}

func TestSpotterFindsCleanKeyword(t *testing.T) {
	sp, _ := spotterSetup(t)
	phones := mustPhones(t, sp.lex, strings.Fields("i want a discount please"))
	hits := sp.Find("discount", phones)
	if len(hits) != 1 {
		t.Fatalf("hits = %v", hits)
	}
	if hits[0].Confidence < 0.95 {
		t.Errorf("clean confidence = %v", hits[0].Confidence)
	}
	// The span should sit inside the utterance, not cover it all.
	if hits[0].Span.End-hits[0].Span.Start >= len(phones) {
		t.Errorf("span too wide: %v of %d", hits[0].Span, len(phones))
	}
}

func TestSpotterRejectsAbsentKeyword(t *testing.T) {
	sp, _ := spotterSetup(t)
	ref := strings.Fields("i want to book a car")
	if hits := sp.Find("discount", mustPhones(t, sp.lex, ref)); len(hits) != 0 {
		t.Errorf("false alarm: %v", hits)
	}
}

func TestSpotterSurvivesChannelNoise(t *testing.T) {
	sp, rec := spotterSetup(t)
	ref := strings.Fields("i want a discount please")
	phones, err := rec.Lex.Phones(ref)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	found := 0
	const trials = 30
	for i := 0; i < trials; i++ {
		obs := rec.Channel.Corrupt(r.Split(uint64(i)), phones)
		sp.Threshold = 0.5
		if hits := sp.Find("discount", obs); len(hits) > 0 {
			found++
		}
	}
	if found < trials*2/3 {
		t.Errorf("spotting recall under noise: %d/%d", found, trials)
	}
}

func TestSpotterUnknownKeyword(t *testing.T) {
	sp, _ := spotterSetup(t)
	obs := mustPhones(t, sp.lex, strings.Fields("i want a car"))
	if hits := sp.Find("zzznotaword", obs); hits != nil {
		t.Errorf("unknown keyword spotted: %v", hits)
	}
}

func TestSpotterMultipleOccurrences(t *testing.T) {
	sp, _ := spotterSetup(t)
	ref := strings.Fields("discount please discount")
	hits := sp.Find("discount", mustPhones(t, sp.lex, ref))
	if len(hits) != 2 {
		t.Fatalf("expected 2 hits, got %v", hits)
	}
	// Hits must not overlap.
	a, b := hits[0].Span, hits[1].Span
	if a.Start < b.End && b.Start < a.End {
		t.Errorf("overlapping hits: %v %v", a, b)
	}
}

func TestSpotterFindAll(t *testing.T) {
	sp, _ := spotterSetup(t)
	ref := strings.Fields("i want a discount please")
	obs := mustPhones(t, sp.lex, ref)
	for _, kw := range []string{"discount", "please"} {
		if hits := sp.Find(kw, obs); len(hits) != 1 {
			t.Errorf("Find(%q) = %v", kw, hits)
		}
	}
	if hits := sp.Find("smith", obs); len(hits) != 0 {
		t.Errorf("phantom keyword: %v", hits)
	}
}

func mustPhones(t *testing.T, lex *Lexicon, words []string) []phonetics.Phone {
	t.Helper()
	p, err := lex.Phones(words)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSpotterEmptyObservation(t *testing.T) {
	sp, _ := spotterSetup(t)
	if hits := sp.Find("discount", nil); hits != nil {
		t.Errorf("empty observation spotted: %v", hits)
	}
}
