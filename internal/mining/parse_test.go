package mining

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseDimLeafForms(t *testing.T) {
	cases := []struct {
		label string
		want  Dim
	}{
		{"discount", CategoryDim("discount")},
		{"weak start[customer intention]", ConceptDim("customer intention", "weak start")},
		{"outcome=reservation", FieldDim("outcome", "reservation")},
		{"outcome=", FieldDim("outcome", "")},
		{"weak start[customer intention] ∧ outcome=reservation",
			AndDim(ConceptDim("customer intention", "weak start"), FieldDim("outcome", "reservation"))},
		{"a[b] ∧ c ∧ d=e",
			AndDim(ConceptDim("b", "a"), CategoryDim("c"), FieldDim("d", "e"))},
	}
	for _, c := range cases {
		got, err := ParseDim(c.label)
		if err != nil {
			t.Fatalf("ParseDim(%q): %v", c.label, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseDim(%q) = %#v, want %#v", c.label, got, c.want)
		}
		if got.Label() != c.label {
			t.Errorf("ParseDim(%q).Label() = %q; label did not round-trip", c.label, got.Label())
		}
	}
}

func TestParseDimErrors(t *testing.T) {
	for _, label := range []string{
		"",             // empty
		"]",            // ']' without '['
		"x]",           // ditto
		"[cat]",        // empty canonical
		"canon[]",      // empty category
		"=v",           // empty field name
		"a ∧ ",         // empty conjunct
		" ∧ a",         // empty conjunct
		"a=b[c]",       // '=' inside a concept canonical — ambiguous
		"f=v]",         // reserved ']' inside a field value
		"a∧b",          // bare '∧' without the separator spacing
		"nested[ca[t]", // reserved '[' inside a component
	} {
		if d, err := ParseDim(label); err == nil {
			t.Errorf("ParseDim(%q) = %#v, want error", label, d)
		}
	}
}

// dimComponent draws a non-empty string over a safe alphabet (letters,
// digits, space — no reserved characters).
func dimComponent(r *rand.Rand) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 "
	n := 1 + r.Intn(12)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(alphabet[r.Intn(len(alphabet))])
	}
	s := b.String()
	// A component that is all spaces still round-trips, but leading or
	// trailing spaces around the ∧ separator would be eaten by a reader;
	// the grammar itself preserves them, so keep them — only the empty
	// string is invalid.
	if s == "" {
		return "x"
	}
	return s
}

// randomLeafDim draws one concept, category, or field dimension.
func randomLeafDim(r *rand.Rand) Dim {
	switch r.Intn(3) {
	case 0:
		return ConceptDim(dimComponent(r), dimComponent(r))
	case 1:
		return CategoryDim(dimComponent(r))
	default:
		return FieldDim(dimComponent(r), dimComponent(r))
	}
}

// TestParseDimRoundTripProperty pins ParseDim(d.Label()) == d for
// randomly drawn concept/category/field/And dimensions.
func TestParseDimRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var d Dim
		if r.Intn(3) == 0 {
			// Flat conjunction of 2..4 leaves (Label flattens nesting, so
			// only flat Ands can round-trip structurally).
			n := 2 + r.Intn(3)
			children := make([]Dim, n)
			for i := range children {
				children[i] = randomLeafDim(r)
			}
			d = AndDim(children...)
		} else {
			d = randomLeafDim(r)
		}
		got, err := ParseDim(d.Label())
		if err != nil {
			t.Logf("ParseDim(%q): %v", d.Label(), err)
			return false
		}
		return reflect.DeepEqual(got, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalLabel(t *testing.T) {
	a := ConceptDim("intent", "weak start")
	b := FieldDim("outcome", "reservation")
	c := CategoryDim("discount")

	if got := a.CanonicalLabel(); got != a.Label() {
		t.Errorf("leaf CanonicalLabel = %q, want Label %q", got, a.Label())
	}
	// Order, nesting and duplication do not change the canonical key.
	forms := []Dim{
		AndDim(a, b, c),
		AndDim(c, b, a),
		AndDim(AndDim(a, b), c),
		AndDim(a, AndDim(b, AndDim(c, a))),
	}
	want := forms[0].CanonicalLabel()
	for _, d := range forms[1:] {
		if got := d.CanonicalLabel(); got != want {
			t.Errorf("CanonicalLabel(%q) = %q, want %q", d.Label(), got, want)
		}
	}
	// The canonical form is itself parseable and semantically equal:
	// same postings on a real index. The original is counted by the naive
	// view, which memoizes nothing: the index's conjunction memo keys both
	// forms alike.
	var docs []Document
	for i, outcome := range []string{"reservation", "unbooked", "reservation", "service"} {
		docs = append(docs, Document{
			ID:     string(rune('a' + i)),
			Fields: map[string]string{"outcome": outcome},
		})
	}
	ix := Seal(docs)
	d := AndDim(b, AndDim(b, b))
	parsed, err := ParseDim(d.CanonicalLabel())
	if err != nil {
		t.Fatalf("ParseDim(canonical %q): %v", d.CanonicalLabel(), err)
	}
	if got, want := ix.Count(parsed), ix.Naive().Count(d); got != want {
		t.Errorf("canonical form count %d != original count %d", got, want)
	}
}

// FuzzParseDim checks that any label that parses at all round-trips:
// parse → Label → parse must reproduce the same Dim, and the canonical
// label must stay parseable.
func FuzzParseDim(f *testing.F) {
	f.Add("discount")
	f.Add("weak start[customer intention]")
	f.Add("outcome=reservation")
	f.Add("a[b] ∧ c=d ∧ e")
	f.Add("a=b[c]")
	f.Add("")
	// Conjunction shapes that hit the memoized-conjunction cache: the
	// prepared index keys its memo by CanonicalLabel, so reordered and
	// duplicated conjuncts must all canonicalize to one key.
	f.Add("b ∧ a ∧ b")
	f.Add("c=d ∧ a[b]")
	f.Add("x[y] ∧ x[y]")
	f.Add("e ∧ c=d ∧ a[b] ∧ e")
	// Not valid UTF-8: the grammar is over bytes and in-process callers may
	// pass any (the daemons refuse such a parameter before it gets here).
	f.Add("agent=A\xff4")
	f.Fuzz(func(t *testing.T, label string) {
		d, err := ParseDim(label)
		if err != nil {
			return
		}
		again, err := ParseDim(d.Label())
		if err != nil {
			t.Fatalf("ParseDim(%q) ok but re-parsing Label %q failed: %v", label, d.Label(), err)
		}
		if !reflect.DeepEqual(again, d) {
			t.Fatalf("round-trip drift: %q → %#v → %q → %#v", label, d, d.Label(), again)
		}
		canon, err := ParseDim(d.CanonicalLabel())
		if err != nil {
			t.Fatalf("canonical label %q of parseable %q does not parse: %v", d.CanonicalLabel(), label, err)
		}
		// The canonical label is the conjunction-memo cache key: parsing
		// it back and re-canonicalizing must reach a fixed point, or two
		// spellings of one query could occupy (and miss) separate entries.
		if canon.CanonicalLabel() != d.CanonicalLabel() {
			t.Fatalf("canonical label not a fixed point: %q → %q → %q",
				label, d.CanonicalLabel(), canon.CanonicalLabel())
		}
	})
}
