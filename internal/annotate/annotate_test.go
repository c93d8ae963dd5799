package annotate

import (
	"reflect"
	"testing"

	"bivoc/internal/textproc"
)

// annotateText is how a caller holding text annotates it: tokenize once,
// then the engine's one entry point.
func annotateText(en *Engine, text string) []Concept {
	return en.Annotate(nil, textproc.Words(text))
}

// entryCount is the number of surfaces the dictionary holds.
func entryCount(d *Dictionary) int {
	n := 0
	var walk func(*trieNode)
	walk = func(node *trieNode) {
		if node.entry != nil {
			n++
		}
		for _, c := range node.children {
			walk(c)
		}
	}
	walk(d.root)
	return n
}

// units returns the surfaces of the tagged units of text, read through a
// pattern that matches every unit and is labelled with its surface.
func units(d *Dictionary, text string) []string {
	en := NewEngine(d)
	en.AddPattern(Pattern{Name: "unit", Elems: []Elem{{PoS: PoSAny}}, Category: "\x00unit"})
	var out []string
	for _, c := range annotateText(en, text) {
		if c.Category == "\x00unit" {
			out = append(out, c.Canonical)
		}
	}
	return out
}

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
	en := NewEngine(d)
	if cs := annotateText(en, "Master Card"); len(cs) != 1 || cs[0].Canonical != "credit card" || cs[0].Category != "payment methods" {
		t.Errorf("lookup = %+v", cs)
	}
	if cs := annotateText(en, "zebra"); len(cs) != 0 {
		t.Errorf("absent surface resolved: %+v", cs)
	}
	if n := entryCount(d); n != 11 {
		t.Errorf("len = %d", n)
	}
}

func TestDictionaryIgnoresEmptySurface(t *testing.T) {
	d := NewDictionary()
	d.Add(Entry{Surface: "   "})
	if entryCount(d) != 0 {
		t.Error("blank surface added")
	}
}

// TestTagWordPoS reads each word's tag through a one-element pattern per
// PoS, labelled with the PoS's name.
func TestTagWordPoS(t *testing.T) {
	en := NewEngine(NewDictionary())
	for p := PoSNoun; p < PoSAny; p++ {
		en.AddPattern(Pattern{Name: p.String(), Elems: []Elem{{PoS: p}}, Label: p.String(), Category: "pos"})
	}
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
		if cs := annotateText(en, w); len(cs) != 1 || cs[0].Canonical != want.String() {
			t.Errorf("tag of %q: %v, want %v", w, cs, want)
		}
	}
}

func TestTagMultiWordLongestMatch(t *testing.T) {
	d := carRentalDict()
	const text = "i need a child seat in new york"
	want := []string{"i", "need", "a", "child seat", "in", "new york"}
	if surfaces := units(d, text); !reflect.DeepEqual(surfaces, want) {
		t.Errorf("surfaces = %v", surfaces)
	}
	cs := annotateText(NewEngine(d), text)
	wantCs := []Concept{
		{Canonical: "child seat", Category: "vehicle feature", Start: 3, End: 4},
		{Canonical: "new york", Category: "place", Start: 5, End: 6},
	}
	if !reflect.DeepEqual(cs, wantCs) {
		t.Errorf("concepts = %v", cs)
	}
}

func TestDictionaryCanonicalization(t *testing.T) {
	d := carRentalDict()
	en := NewEngine(d)
	// "seven seater" and "suv" should both yield canonical "suv" — the
	// paper's indicator-expression mechanism for Table II.
	c1 := annotateText(en, "looking for a seven seater")
	c2 := annotateText(en, "looking for an suv")
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
	cs := annotateText(en, "please confirm my booking")
	if len(cs) != 1 || cs[0].Category != "request" || cs[0].Canonical != "please confirm" {
		t.Errorf("concepts = %v", cs)
	}
	if cs := annotateText(en, "please the noun"); len(cs) != 0 {
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
	cs := annotateText(en, "it is just 45 dollars a day")
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
	cs := annotateText(en, "we have a wonderful rate today")
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
	cs := annotateText(en, "suv with child seat and discount in ny")
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
	if cs := annotateText(en, ""); len(cs) != 0 {
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
	if cs := annotateText(en, "hello world"); len(cs) != 0 {
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
	if cs := annotateText(en, "anything at all"); len(cs) != 0 {
		t.Errorf("empty pattern matched: %v", cs)
	}
}
