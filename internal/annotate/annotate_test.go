package annotate

import (
	"reflect"
	"testing"
)

func carRentalDict() *Dictionary {
	d := NewDictionary()
	for _, e := range []Entry{
		{Surface: "child seat", PoS: PoSNoun, Canonical: "child seat", Category: "vehicle feature"},
		{Surface: "ny", PoS: PoSProperNoun, Canonical: "new york", Category: "place"},
		{Surface: "new york", PoS: PoSProperNoun, Canonical: "new york", Category: "place"},
		{Surface: "master card", PoS: PoSNoun, Canonical: "credit card", Category: "payment methods"},
		{Surface: "visa", PoS: PoSNoun, Canonical: "credit card", Category: "payment methods"},
		{Surface: "suv", PoS: PoSNoun, Canonical: "suv", Category: "vehicle type"},
		{Surface: "seven seater", PoS: PoSNoun, Canonical: "suv", Category: "vehicle type"},
		{Surface: "chevy impala", PoS: PoSNoun, Canonical: "full-size", Category: "vehicle type"},
		{Surface: "discount", PoS: PoSNoun, Canonical: "discount", Category: "discount"},
		{Surface: "corporate program", PoS: PoSNoun, Canonical: "discount", Category: "discount"},
		{Surface: "rate", PoS: PoSNoun, Canonical: "rate", Category: "rate"},
	} {
		d.Add(e)
	}
	return d
}

func TestDictionaryLookup(t *testing.T) {
	d := carRentalDict()
	if tw := d.Tag("Master Card"); len(tw) != 1 || tw[0].Canonical != "credit card" || tw[0].Category != "payment methods" {
		t.Errorf("lookup = %+v", tw)
	}
	if tw := d.Tag("zebra"); len(tw) != 1 || tw[0].Category != "" {
		t.Errorf("absent surface resolved: %+v", tw)
	}
	if len(d.entries) != 11 {
		t.Errorf("len = %d", len(d.entries))
	}
}

func TestDictionaryIgnoresEmptySurface(t *testing.T) {
	d := NewDictionary()
	d.Add(Entry{Surface: "   "})
	if len(d.entries) != 0 {
		t.Error("blank surface added")
	}
}

func TestTagWordPoS(t *testing.T) {
	d := NewDictionary()
	cases := map[string]PoS{
		"book":      PoSVerb,
		"wonderful": PoSAdjective,
		"quickly":   PoSAdverb,
		"renting":   PoSVerb,
		"charged":   PoSVerb,
		"500":       PoSNumeric,
		"i":         PoSPronoun,
		"car":       PoSNoun,
	}
	for w, want := range cases {
		if got := d.TagWord(w); got != want {
			t.Errorf("TagWord(%q) = %v, want %v", w, got, want)
		}
	}
}

func TestTagMultiWordLongestMatch(t *testing.T) {
	d := carRentalDict()
	tagged := d.Tag("i need a child seat in new york")
	var surfaces []string
	for _, tw := range tagged {
		surfaces = append(surfaces, tw.Word)
	}
	want := []string{"i", "need", "a", "child seat", "in", "new york"}
	if !reflect.DeepEqual(surfaces, want) {
		t.Errorf("surfaces = %v", surfaces)
	}
	if tagged[3].Category != "vehicle feature" {
		t.Errorf("child seat category = %q", tagged[3].Category)
	}
}

func TestDictionaryCanonicalization(t *testing.T) {
	d := carRentalDict()
	en := NewEngine(d)
	// "seven seater" and "suv" should both yield canonical "suv" — the
	// paper's indicator-expression mechanism for Table II.
	c1 := en.Annotate("looking for a seven seater")
	c2 := en.Annotate("looking for an suv")
	if len(c1) != 1 || len(c2) != 1 {
		t.Fatalf("concepts: %v %v", c1, c2)
	}
	if c1[0].Canonical != "suv" || c2[0].Canonical != "suv" {
		t.Errorf("canonicals: %q %q", c1[0].Canonical, c2[0].Canonical)
	}
}

func TestPatternPleaseVerb(t *testing.T) {
	en := NewEngine(NewDictionary())
	en.AddPattern(Pattern{
		Name:     "request",
		Elems:    []Elem{Lit("please"), {PoS: PoSVerb}},
		Category: "request",
	})
	cs := en.Annotate("please confirm my booking")
	if len(cs) != 1 || cs[0].Category != "request" || cs[0].Canonical != "please confirm" {
		t.Errorf("concepts = %v", cs)
	}
	if cs := en.Annotate("please the noun"); len(cs) != 0 {
		t.Errorf("please + noun should not match: %v", cs)
	}
}

func TestPatternJustNumericDollars(t *testing.T) {
	en := NewEngine(NewDictionary())
	en.AddPattern(Pattern{
		Name:     "good-rate",
		Elems:    []Elem{Lit("just"), {PoS: PoSNumeric}, Lit("dollars")},
		Label:    "mention of good rate",
		Category: "value selling",
	})
	cs := en.Annotate("it is just 45 dollars a day")
	if len(cs) != 1 || cs[0].Canonical != "mention of good rate" || cs[0].Category != "value selling" {
		t.Errorf("concepts = %v", cs)
	}
}

func TestPatternWithCategoryElem(t *testing.T) {
	d := carRentalDict()
	en := NewEngine(d)
	en.AddPattern(Pattern{
		Name:     "rate-praise",
		Elems:    []Elem{Lit("wonderful"), {Category: "rate", PoS: PoSAny}},
		Label:    "mention of good rate",
		Category: "value selling",
	})
	cs := en.Annotate("we have a wonderful rate today")
	found := false
	for _, c := range cs {
		if c.Category == "value selling" {
			found = true
		}
	}
	if !found {
		t.Errorf("value selling concept missing: %v", cs)
	}
}

func TestAnnotateOrdersByPosition(t *testing.T) {
	d := carRentalDict()
	en := NewEngine(d)
	cs := en.Annotate("suv with child seat and discount in ny")
	for i := 1; i < len(cs); i++ {
		if cs[i].Start < cs[i-1].Start {
			t.Errorf("concepts out of order: %v", cs)
		}
	}
	if len(cs) != 4 {
		t.Errorf("expected 4 concepts, got %v", cs)
	}
}

func TestAnnotateEmptyText(t *testing.T) {
	en := NewEngine(carRentalDict())
	if cs := en.Annotate(""); len(cs) != 0 {
		t.Errorf("empty text produced %v", cs)
	}
}

func TestCategoriesHelper(t *testing.T) {
	cs := []Concept{
		{Category: "b"}, {Category: "a"}, {Category: "b"},
	}
	if got := Categories(cs); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("got %v", got)
	}
}

func TestEngineNilDictionary(t *testing.T) {
	en := NewEngine(nil)
	if en.dict == nil {
		t.Fatal("nil dictionary not defaulted")
	}
	if cs := en.Annotate("hello world"); len(cs) != 0 {
		t.Errorf("bare engine annotated %v", cs)
	}
}

func TestPoSString(t *testing.T) {
	if PoSNoun.String() != "noun" || PoSAny.String() != "any" || PoS(200).String() != "other" {
		t.Error("PoS names wrong")
	}
}

func TestEmptyPatternIgnored(t *testing.T) {
	en := NewEngine(NewDictionary())
	en.AddPattern(Pattern{Name: "empty"})
	if cs := en.Annotate("anything at all"); len(cs) != 0 {
		t.Errorf("empty pattern matched: %v", cs)
	}
}
