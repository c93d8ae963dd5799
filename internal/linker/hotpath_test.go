package linker

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"bivoc/internal/phonetics"
	"bivoc/internal/warehouse"
)

// wideEngine links against a table with four routed attributes, two of
// them for one token type (so a token's list merges two attributes' runs),
// beside a second table: the shape the two-column subscriber engine of the
// churn pipeline never exercises.
func wideEngine(t testing.TB) *Engine {
	t.Helper()
	db := warehouse.NewDB()
	str := func(name string, kind warehouse.MatchKind) warehouse.Column {
		return warehouse.Column{Name: name, Type: warehouse.TypeString, Match: kind}
	}
	people, err := db.CreateTable(warehouse.Schema{Table: "people", Key: "id", Columns: []warehouse.Column{
		str("id", warehouse.MatchExact), str("name", warehouse.MatchName), str("alias", warehouse.MatchName),
		str("phone", warehouse.MatchDigits), str("city", warehouse.MatchText),
	}})
	if err != nil {
		t.Fatal(err)
	}
	cards, err := db.CreateTable(warehouse.Schema{Table: "cards", Key: "id", Columns: []warehouse.Column{
		str("id", warehouse.MatchExact), str("number", warehouse.MatchDigits), str("holder", warehouse.MatchName),
	}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	givens := []string{"john", "jon", "joan", "mary", "marie", "robert", "rupert", "susan", "suzanne", "james"}
	surs := []string{"smith", "smyth", "jones", "johns", "brown", "braun", "miller", "muller", "wilson", "willson"}
	cities := []string{"lake shore drive", "lakeshore", "boston", "austin", "new delhi", "delhi"}
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	for i := 0; i < 120; i++ {
		name := pick(givens) + " " + pick(surs)
		people.MustInsert(
			warehouse.StringValue(fmt.Sprintf("p%d", i)), warehouse.StringValue(name),
			warehouse.StringValue(pick(givens)), warehouse.StringValue(fmt.Sprintf("9%09d", rng.Intn(1e9))),
			warehouse.StringValue(pick(cities)),
		)
		cards.MustInsert(
			warehouse.StringValue(fmt.Sprintf("k%d", i)),
			warehouse.StringValue(fmt.Sprintf("4%015d", rng.Int63n(1e15))), warehouse.StringValue(name),
		)
	}
	e, err := NewEngine(db, Config{Targets: map[TokenType][]Attribute{
		TokName:   {{Table: "people", Column: "name"}, {Table: "people", Column: "alias"}, {Table: "cards", Column: "holder"}},
		TokDigits: {{Table: "people", Column: "phone"}, {Table: "cards", Column: "number"}},
		TokPlace:  {{Table: "people", Column: "city"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// wideDocs draws documents of one to five tokens, with repeated tokens,
// garbled names, digit fragments and tokens that match nothing.
func wideDocs(n int) [][]Token {
	rng := rand.New(rand.NewSource(11))
	names := []string{"jon", "smth", "mary", "Joan", "rupert", "willson", "zzzz", "braun", "jones"}
	digits := []string{"987", "9123456", "4000", "12", "", "9" + fmt.Sprint(rng.Intn(1e9))}
	places := []string{"lakeshore", "delhi", "bostn", "drive"}
	docs := make([][]Token, n)
	for i := range docs {
		for j := rng.Intn(5) + 1; j > 0; j-- {
			switch rng.Intn(4) {
			case 0:
				docs[i] = append(docs[i], Token{digits[rng.Intn(len(digits))], TokDigits})
			case 1:
				docs[i] = append(docs[i], Token{places[rng.Intn(len(places))], TokPlace})
			default:
				docs[i] = append(docs[i], Token{names[rng.Intn(len(names))], TokName})
			}
		}
	}
	return append(docs, nil)
}

// linkResult is everything the three list-building entry points say
// about one document.
type linkResult struct {
	link, people, cards []Match
	best                Match
	bestOK              bool
}

func linkAll(e *Engine, doc []Token, k int) linkResult {
	var r linkResult
	r.link = e.Link(doc, k)
	r.people = e.LinkTable(doc, "people", k)
	r.best, r.bestOK = e.LinkIndividualBest(doc, "people")
	r.cards = e.LinkTable(doc, "cards", k)
	return r
}

// TestPooledContextReuse is the test the pooled link context needs: what
// a call returns must not depend on what the context it drew did before.
// The expected results come from the naive view in one fixed order; the
// engine then answers the same documents in shuffled orders, entry points
// interleaved, first alone and then from 8 goroutines at once (the race
// detector watches those), and every answer must equal the expectation.
func TestPooledContextReuse(t *testing.T) {
	t.Parallel()
	e := wideEngine(t)
	docs := wideDocs(40)
	const k = 3
	want := make([]linkResult, len(docs))
	for i, doc := range docs {
		want[i] = linkAll(e.Naive(), doc, k)
	}
	for i := len(docs) - 1; i >= 0; i-- {
		if got := linkAll(e.Naive(), docs[i], k); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("the naive view answers doc %d differently in reverse order:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
	pass := func(seed int64) error {
		rng := rand.New(rand.NewSource(seed))
		for _, i := range rng.Perm(len(docs)) {
			if got := linkAll(e, docs[i], k); !reflect.DeepEqual(got, want[i]) {
				return fmt.Errorf("seed %d doc %d %v:\n got %+v\nwant %+v", seed, i, docs[i], got, want[i])
			}
		}
		return nil
	}
	for seed := int64(0); seed < 3; seed++ {
		if err := pass(seed); err != nil {
			t.Fatal(err)
		}
	}
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = pass(int64(100 + g))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentLinksShareOneCache: eight goroutines link overlapping
// documents through one engine from its first call, so heads are ranked,
// stored and read concurrently (the race detector watches), and every
// answer must equal what a second engine over the same tables answers
// linking them one at a time.
func TestConcurrentLinksShareOneCache(t *testing.T) {
	t.Parallel()
	docs := wideDocs(60)
	const k = 3
	seq := wideEngine(t)
	want := make([]linkResult, len(docs))
	for i, doc := range docs {
		want[i] = linkAll(seq, doc, k)
	}
	e := wideEngine(t)
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for _, i := range rng.Perm(len(docs)) {
				if got := linkAll(e, docs[i], k); !reflect.DeepEqual(got, want[i]) {
					errs[g] = fmt.Errorf("goroutine %d doc %d %v:\n got %+v\nwant %+v", g, i, docs[i], got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestHeadsFollowTableInserts: a head ranked before an Insert must not
// answer after it. The digits rank row 4 (9555566666) first until a row
// holding exactly them is inserted.
func TestHeadsFollowTableInserts(t *testing.T) {
	db := testDB(t)
	e := testEngine(t, db)
	doc := []Token{{"9444455555", TokDigits}}
	if m := e.LinkTable(doc, "customers", 1); len(m) != 1 || m[0].Row != 4 {
		t.Fatalf("before the insert: %v, want row 4", m)
	}
	row := db.MustTable("customers").MustInsert(warehouse.StringValue("c5"),
		warehouse.StringValue("anna lee"), warehouse.StringValue("9444455555"))
	for _, got := range [][]Match{e.LinkTable(doc, "customers", 1), e.Link(doc, 1)} {
		if len(got) != 1 || got[0].Table != "customers" || got[0].Row != row {
			t.Fatalf("after the insert: %v, want customers row %d", got, row)
		}
	}
	if got, want := e.Link(doc, 3), e.Naive().Link(doc, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the insert: %v, the naive view %v", got, want)
	}
}

// TestLinkAllocations guards the link context and the head cache: a warm
// Link allocates its result, and nothing per token or candidate. With the
// per-(token, attribute) memo maps and per-token best map it was 53 for
// the digits-only message and 165 for the mixed one; with a memo per
// call, 65 for the mixed one, most of it a name token's phones and index
// keys, which a cached head no longer derives.
func TestLinkAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops contexts at random under the race detector")
	}
	e := testEngine(t, testDB(t))
	for _, c := range []struct {
		doc []Token
		max float64
	}{
		{[]Token{{"987654", TokDigits}}, 2},
		{[]Token{{"jon", TokName}, {"smth", TokName}, {"987654", TokDigits}}, 4},
	} {
		e.Link(c.doc, 1)
		if got := testing.AllocsPerRun(100, func() { e.Link(c.doc, 1) }); got > c.max {
			t.Errorf("Link(%v) allocates %v times, want at most %v", c.doc, got, c.max)
		}
	}
}

// TestPhoneSimBoundIsAnUpperBound: featSim skips a word when the bound
// cannot exceed the running best, so a PhoneSimilarity above its bound
// would be an improvement lost.
func TestPhoneSimBoundIsAnUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seq := func() []phonetics.Phone {
		s := make([]phonetics.Phone, rng.Intn(14))
		for i := range s {
			s[i] = phonetics.Phone(rng.Intn(phonetics.NumPhones))
		}
		return s
	}
	for trial := 0; trial < 20000; trial++ {
		a, b := seq(), seq()
		if trial%4 == 0 && len(b) <= len(a) {
			b = a[:len(b)] // a prefix meets the bound: nothing but insertions
		}
		ps, bound := phonetics.PhoneSimilarity(a, b), phoneSimBound(len(a), len(b))
		if ps > bound {
			t.Fatalf("PhoneSimilarity(%v, %v) = %v exceeds its bound %v", a, b, ps, bound)
		}
	}
}

// TestLearnWeightsIsDeterministic: the M-step and the renormalization sum
// floats over the attributes, four of one table here, in attrOrder; in
// map order the last bits of the history and the weights changed from
// run to run.
func TestLearnWeightsIsDeterministic(t *testing.T) {
	docs := wideDocs(60)
	var history []float64
	var weights map[Attribute]float64
	for run := 0; run < 20; run++ {
		e := wideEngine(t)
		h := e.LearnWeights(docs, 4)
		if run == 0 {
			history, weights = h, e.weights
			continue
		}
		if !reflect.DeepEqual(h, history) {
			t.Fatalf("run %d history %v, run 0 %v", run, h, history)
		}
		if !reflect.DeepEqual(e.weights, weights) {
			t.Fatalf("run %d weights %v, run 0 %v", run, e.weights, weights)
		}
	}
}
