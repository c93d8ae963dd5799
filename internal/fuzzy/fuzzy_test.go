package fuzzy

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestJaroKnown(t *testing.T) {
	// Canonical examples from the literature.
	if got := Jaro("MARTHA", "MARHTA"); math.Abs(got-0.944444) > 1e-5 {
		t.Errorf("Jaro(MARTHA,MARHTA) = %v, want 0.944444", got)
	}
	if got := Jaro("DIXON", "DICKSONX"); math.Abs(got-0.766667) > 1e-5 {
		t.Errorf("Jaro(DIXON,DICKSONX) = %v, want 0.766667", got)
	}
	if Jaro("", "") != 1 || Jaro("a", "") != 0 {
		t.Error("Jaro empty-string handling wrong")
	}
	if Jaro("abc", "xyz") != 0 {
		t.Error("disjoint strings should score 0")
	}
}

func TestJaroWinklerKnown(t *testing.T) {
	if got := JaroWinkler("MARTHA", "MARHTA"); math.Abs(got-0.961111) > 1e-5 {
		t.Errorf("JW(MARTHA,MARHTA) = %v, want 0.961111", got)
	}
	if got := JaroWinkler("DWAYNE", "DUANE"); math.Abs(got-0.84) > 1e-2 {
		t.Errorf("JW(DWAYNE,DUANE) = %v, want ~0.84", got)
	}
}

func TestJaroWinklerPrefixBoost(t *testing.T) {
	// Same Jaro backbone, shared prefix should never hurt.
	f := func(a, b string) bool {
		if len(a) > 20 {
			a = a[:20]
		}
		if len(b) > 20 {
			b = b[:20]
		}
		jw := JaroWinkler(a, b)
		j := Jaro(a, b)
		return jw >= j-1e-12 && jw <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestJaroSymmetryProperty(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 20 {
			a = a[:20]
		}
		if len(b) > 20 {
			b = b[:20]
		}
		return math.Abs(Jaro(a, b)-Jaro(b, a)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNGramSet(t *testing.T) {
	s := NGramSet("ab", 2)
	for _, g := range []string{"#a", "ab", "b#"} {
		if _, ok := s[g]; !ok {
			t.Errorf("missing gram %q", g)
		}
	}
	if len(s) != 3 {
		t.Errorf("got %d grams", len(s))
	}
	if got := NGramSet("", 2); len(got) != 1 { // "##"
		t.Errorf("empty-string grams: %v", got)
	}
}

func TestDigitSimilarityPartialRecognition(t *testing.T) {
	// The paper's example: 6 of 10 digits recognized.
	if got := DigitSimilarity("987654", "9876543210"); got != 0.6 {
		t.Errorf("partial digits = %v, want 0.6", got)
	}
	if got := DigitSimilarity("9876543210", "9876543210"); got != 1 {
		t.Errorf("full digits = %v", got)
	}
	if got := DigitSimilarity("phone 98-76", "9876"); got != 1 {
		t.Errorf("embedded digits = %v", got)
	}
	if got := DigitSimilarity("", ""); got != 1 {
		t.Errorf("both empty = %v", got)
	}
	if got := DigitSimilarity("123", ""); got != 0 {
		t.Errorf("observed vs empty ref = %v", got)
	}
	if got := DigitSimilarity("", "123"); got != 0 {
		t.Errorf("empty observed = %v", got)
	}
}

func TestDigitSimilarityOrderMatters(t *testing.T) {
	// LCS-based: reversed digits should score poorly.
	fwd := DigitSimilarity("123456", "123456")
	rev := DigitSimilarity("654321", "123456")
	if rev >= fwd {
		t.Errorf("reversed digits score %v should be below %v", rev, fwd)
	}
}

func TestNumericProximity(t *testing.T) {
	if NumericProximity(100, 100, 0.5) != 1 {
		t.Error("equal values should score 1")
	}
	if got := NumericProximity(100, 150, 0.5); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("got %v", got)
	}
	if NumericProximity(100, 300, 0.5) != 0 {
		t.Error("huge discrepancy should score 0")
	}
	if NumericProximity(0, 0, 0.5) != 1 {
		t.Error("both zero should score 1")
	}
	if NumericProximity(5, 5, 0) != 1 || NumericProximity(5, 6, 0) != 0 {
		t.Error("zero tolerance should be exact match")
	}
}

func TestNumericProximityRangeProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		v := NumericProximity(a, b, 0.5)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// lcsRef is the textbook full-table LCS, the reference both lcsLen paths
// are held to.
func lcsRef(a, b string) int {
	t := make([][]int, len(a)+1)
	for i := range t {
		t[i] = make([]int, len(b)+1)
	}
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				t[i][j] = t[i-1][j-1] + 1
			} else {
				t[i][j] = max(t[i-1][j], t[i][j-1])
			}
		}
	}
	return t[len(a)][len(b)]
}

func checkLCS(t *testing.T, a, b string) {
	t.Helper()
	want := lcsRef(a, b)
	if got := lcsLen(a, b); got != want {
		t.Fatalf("lcsLen(%q, %q) = %d, want %d", a, b, got, want)
	}
	if got := lcsLen(b, a); got != want {
		t.Fatalf("lcsLen(%q, %q) = %d, want %d", b, a, got, want)
	}
	if got := lcsLenDP(a, b); got != want {
		t.Fatalf("lcsLenDP(%q, %q) = %d, want %d", a, b, got, want)
	}
}

// TestDigitLCSMatchesReference walks lengths 0-70 on both sides — through
// the 64-byte word, across it, and past it on one side or both — over
// digit strings from a small and the full alphabet and over strings with
// non-digit bytes mixed in.
func TestDigitLCSMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	alphabets := []string{"01", "0123456789", "0123456789-+ a\xff"}
	gen := func(n int, alpha string) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alpha[rng.Intn(len(alpha))]
		}
		return string(b)
	}
	for la := 0; la <= 70; la++ {
		for _, lb := range []int{0, 1, la / 2, la, 63, 64, 65, 70} {
			for _, alpha := range alphabets {
				checkLCS(t, gen(la, alpha), gen(lb, alpha))
			}
			// A non-digit on one side only: the other side stays in the word.
			checkLCS(t, gen(la, alphabets[1]), gen(lb, alphabets[2]))
		}
	}
	for _, s := range []string{"", "7", "9876543210", strings.Repeat("1", 64), strings.Repeat("90", 35)} {
		checkLCS(t, s, s)
	}
}

func FuzzDigitLCS(f *testing.F) {
	f.Add("9876543210", "987654")
	f.Add("", "123")
	f.Add(strings.Repeat("0123456789", 7), strings.Repeat("13579", 13))
	f.Add("12a45", "1245")
	f.Add(strings.Repeat("7", 64), strings.Repeat("7", 65))
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 200 || len(b) > 200 {
			return
		}
		checkLCS(t, a, b)
		// The fuzzer rarely finds digits on its own: fold both onto them too.
		fold := func(s string) string {
			d := []byte(s)
			for i := range d {
				d[i] = '0' + d[i]%10
			}
			return string(d)
		}
		checkLCS(t, fold(a), fold(b))
	})
}
