package phonetics

import (
	"testing"
	"testing/quick"
)

func TestPhoneString(t *testing.T) {
	if Sil.String() != "sil" || AA.String() != "AA" || ZH.String() != "ZH" {
		t.Error("phone names wrong")
	}
	if Phone(200).String() != "?" {
		t.Error("out-of-range phone should stringify to ?")
	}
}

func TestInventoryComplete(t *testing.T) {
	if NumPhones != 39+1 {
		t.Errorf("NumPhones = %d, want 40 (39 phones + silence)", NumPhones)
	}
	if len(phoneNames) != NumPhones {
		t.Errorf("phoneNames has %d entries", len(phoneNames))
	}
}

// TestEveryPhoneHasClass holds the class table to the map it replaced,
// for every value a Phone can take: inventory phones have the class the
// map gave them, and anything past the inventory reads as silence.
func TestEveryPhoneHasClass(t *testing.T) {
	want := map[Phone]Class{
		Sil: ClassSilence,
		IY:  ClassVowelFront, IH: ClassVowelFront, EH: ClassVowelFront, AE: ClassVowelFront,
		AA: ClassVowelBack, AO: ClassVowelBack, AH: ClassVowelBack, UH: ClassVowelBack,
		UW: ClassVowelBack, ER: ClassVowelBack,
		EY: ClassVowelDiphthong, AY: ClassVowelDiphthong, OY: ClassVowelDiphthong,
		AW: ClassVowelDiphthong, OW: ClassVowelDiphthong,
		B: ClassStopVoiced, D: ClassStopVoiced, G: ClassStopVoiced,
		P: ClassStopUnvoiced, T: ClassStopUnvoiced, K: ClassStopUnvoiced,
		V: ClassFricativeVoiced, DH: ClassFricativeVoiced, Z: ClassFricativeVoiced, ZH: ClassFricativeVoiced,
		F: ClassFricativeUnvoiced, TH: ClassFricativeUnvoiced, S: ClassFricativeUnvoiced,
		SH: ClassFricativeUnvoiced, HH: ClassFricativeUnvoiced,
		CH: ClassAffricate, JH: ClassAffricate,
		M: ClassNasal, N: ClassNasal, NG: ClassNasal,
		L: ClassLiquid, R: ClassLiquid,
		W: ClassGlide, Y: ClassGlide,
	}
	if len(want) != NumPhones {
		t.Fatalf("reference map names %d phones, inventory has %d", len(want), NumPhones)
	}
	for i := 0; i < 256; i++ {
		p := Phone(i)
		c, ok := want[p]
		if ok != (i < NumPhones) {
			t.Errorf("phone %d: in the reference map %v, in the inventory %v", i, ok, i < NumPhones)
		}
		if !ok {
			c = ClassSilence
		}
		if got := ClassOf(p); got != c {
			t.Errorf("ClassOf(%v) = %v, want %v", p, got, c)
		}
	}
}

func TestClassMembersPartition(t *testing.T) {
	seen := map[Phone]bool{}
	for c := Class(0); int(c) < NumClasses; c++ {
		for _, p := range ClassMembers(c) {
			if seen[p] {
				t.Errorf("phone %v in two classes", p)
			}
			seen[p] = true
		}
	}
	if len(seen) != NumPhones {
		t.Errorf("classes cover %d phones, want %d", len(seen), NumPhones)
	}
}

func TestIsVowel(t *testing.T) {
	for _, p := range []Phone{AA, IY, OW, AY, ER} {
		if !IsVowel(p) {
			t.Errorf("%v should be a vowel", p)
		}
	}
	for _, p := range []Phone{B, S, M, R, Sil} {
		if IsVowel(p) {
			t.Errorf("%v should not be a vowel", p)
		}
	}
}

func TestAllPhonesExcludesSilence(t *testing.T) {
	for _, p := range AllPhones() {
		if p == Sil {
			t.Fatal("AllPhones contains silence")
		}
	}
	if len(AllPhones()) != NumPhones-1 {
		t.Errorf("AllPhones length %d", len(AllPhones()))
	}
}

func TestToPhonesDeterministic(t *testing.T) {
	for _, w := range []string{"reservation", "discount", "chicago", "smith"} {
		a := ToPhones(w)
		b := ToPhones(w)
		if len(a) != len(b) {
			t.Fatalf("non-deterministic for %q", w)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("non-deterministic for %q", w)
			}
		}
	}
}

func TestToPhonesKnownWords(t *testing.T) {
	check := func(word string, want ...Phone) {
		t.Helper()
		got := ToPhones(word)
		if len(got) != len(want) {
			t.Errorf("%q → %v, want %v", word, got, want)
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%q → %v, want %v", word, got, want)
				return
			}
		}
	}
	check("cat", K, AE, T)
	check("ship", SH, IH, P)
	check("three", TH, R, IY)   // exception table
	check("check", CH, EH, K)   // ch + ck rules
	check("rate", R, EY, T)     // magic e
	check("night", N, AY, T)    // igh rule
	check("phone", F, OW, N)    // ph + magic e
	check("quick", K, W, IH, K) // qu rule
	check("car", K, AA, R)      // exception
	check("seven", S, EH, V, AH, N)
}

func TestToPhonesCaseInsensitive(t *testing.T) {
	a, b := ToPhones("SMITH"), ToPhones("smith")
	if len(a) != len(b) {
		t.Fatal("case changed pronunciation length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("case changed pronunciation")
		}
	}
}

func TestToPhonesNeverEmitsSilence(t *testing.T) {
	f := func(s string) bool {
		for _, p := range ToPhones(s) {
			if p == Sil || int(p) >= NumPhones {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestToPhonesSkipsDigits(t *testing.T) {
	if got := ToPhones("a1b"); len(got) != 2 {
		t.Errorf("digits should be silent in ToPhones: %v", got)
	}
	if got := ToPhones("123"); len(got) != 0 {
		t.Errorf("pure digits should produce no phones: %v", got)
	}
}

func TestSimilarNamesAreClose(t *testing.T) {
	pairs := [][2]string{
		{"smith", "smyth"},
		{"philip", "filip"},
		{"jon", "john"},
		{"catherine", "katherine"},
	}
	for _, pr := range pairs {
		sim := PhoneSimilarity(ToPhones(pr[0]), ToPhones(pr[1]))
		far := PhoneSimilarity(ToPhones(pr[0]), ToPhones("wolverhampton"))
		if sim <= far {
			t.Errorf("%s/%s similarity %v should exceed unrelated %v", pr[0], pr[1], sim, far)
		}
		if sim < 0.7 {
			t.Errorf("%s/%s similarity %v too low", pr[0], pr[1], sim)
		}
	}
}

func TestSpellDigits(t *testing.T) {
	got := SpellDigits("507")
	if len(got) != 3 || got[0] != "five" || got[1] != "zero" || got[2] != "seven" {
		t.Errorf("got %v", got)
	}
	if got := SpellDigits("abc"); len(got) != 0 {
		t.Errorf("non-digits spelled: %v", got)
	}
}

func TestDigitWordRoundTrip(t *testing.T) {
	for d := 0; d <= 9; d++ {
		w := SpellDigits(string(rune('0' + d)))[0]
		c, ok := WordForDigitWord(w)
		if !ok || c != byte('0'+d) {
			t.Errorf("round trip failed for %d (%s)", d, w)
		}
	}
	if c, ok := WordForDigitWord("oh"); !ok || c != '0' {
		t.Error("'oh' should read as zero")
	}
	if _, ok := WordForDigitWord("car"); ok {
		t.Error("'car' is not a digit word")
	}
}

func TestSoundexKnownCodes(t *testing.T) {
	cases := map[string]string{
		"Robert":   "R163",
		"Rupert":   "R163",
		"Ashcraft": "A261",
		"Ashcroft": "A261",
		"Tymczak":  "T522",
		"Pfister":  "P236",
		"Honeyman": "H555",
		"":         "0000",
		"123":      "0000",
	}
	for in, want := range cases {
		if got := Soundex(in); got != want {
			t.Errorf("Soundex(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSoundexProperty(t *testing.T) {
	f := func(s string) bool {
		code := Soundex(s)
		if len(code) != 4 {
			return false
		}
		for i := 1; i < 4; i++ {
			if code[i] < '0' || code[i] > '9' {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPhoneKeyCollisions(t *testing.T) {
	if PhoneKey("smith") != PhoneKey("smyth") {
		t.Errorf("smith=%s smyth=%s should collide", PhoneKey("smith"), PhoneKey("smyth"))
	}
	if PhoneKey("philip") != PhoneKey("filip") {
		t.Error("philip/filip should collide")
	}
	if PhoneKey("smith") == PhoneKey("jones") {
		t.Error("smith/jones should differ")
	}
}

func TestPhoneKeyNonEmptyForWords(t *testing.T) {
	for _, w := range []string{"a", "eye", "oh", "smith", "zebra"} {
		if PhoneKey(w) == "" {
			t.Errorf("empty key for %q", w)
		}
	}
	if PhoneKey("") != "" {
		t.Error("empty word should give empty key")
	}
}

func TestPhoneDistanceProperties(t *testing.T) {
	a := ToPhones("reservation")
	b := ToPhones("cancellation")
	if PhoneDistance(a, a) != 0 {
		t.Error("self distance must be 0")
	}
	if d1, d2 := PhoneDistance(a, b), PhoneDistance(b, a); d1 != d2 {
		t.Errorf("asymmetric: %v vs %v", d1, d2)
	}
	if PhoneDistance(a, nil) != PhoneDistance(nil, a) {
		t.Error("asymmetric against empty")
	}
}

func TestPhoneDistanceTriangleProperty(t *testing.T) {
	words := []string{"car", "card", "care", "cart", "kart", "smith", "smyth", "rate"}
	for _, wa := range words {
		for _, wb := range words {
			for _, wc := range words {
				a, b, c := ToPhones(wa), ToPhones(wb), ToPhones(wc)
				if PhoneDistance(a, c) > PhoneDistance(a, b)+PhoneDistance(b, c)+1e-9 {
					t.Fatalf("triangle violated for %s,%s,%s", wa, wb, wc)
				}
			}
		}
	}
}

func TestPhoneSimilarityRange(t *testing.T) {
	f := func(s1, s2 string) bool {
		v := PhoneSimilarity(ToPhones(s1), ToPhones(s2))
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if PhoneSimilarity(nil, nil) != 1 {
		t.Error("two empties should be identical")
	}
}

func TestWithinClassCheaperThanAcross(t *testing.T) {
	// b→p (same class: voiced/unvoiced stops are different classes here,
	// use d→b same voiced-stop class) vs d→s (across classes).
	a := []Phone{D}
	same := []Phone{B} // both ClassStopVoiced
	diff := []Phone{S} // fricative
	if PhoneDistance(a, same) >= PhoneDistance(a, diff) {
		t.Error("within-class substitution should be cheaper")
	}
}
