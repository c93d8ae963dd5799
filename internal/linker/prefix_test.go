package linker

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bivoc/internal/warehouse"
)

// prefixAttrs routes names and digits to one attribute per table, and
// places to two attributes of one table: the multi-attribute route,
// ranked whole, beside the single-attribute ones that start as heads.
var prefixAttrs = map[TokenType][]Attribute{
	TokName:   {{Table: "people", Column: "name"}, {Table: "cards", Column: "holder"}},
	TokDigits: {{Table: "people", Column: "phone"}, {Table: "cards", Column: "number"}},
	TokPlace:  {{Table: "people", Column: "name"}, {Table: "people", Column: "alias"}},
}

// prefixWeights holds weights whose products with similarities round,
// re-set between rounds; none is the uniform 1/2 an engine starts with.
var prefixWeights = []float64{1.0 / 3, 0.1, 0.7, 1e-3, 0.25, 2.0 / 3, 0.9, 0.05}

// Near-homophones: many candidates per name token, many equal sims.
var (
	prefixGivens = []string{"jon", "john", "joan", "jonh", "jean", "gene", "jan", "jane", "shawn", "sean", "shaun"}
	prefixSurs   = []string{"smith", "smyth", "smit", "smithe", "schmidt", "reid", "reed", "read", "reade"}
)

// prefixDigits draws n digits over a 3-letter alphabet, so digit sims tie
// across rows and a head's cut falls inside a tie group.
func prefixDigits(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = "357"[rng.Intn(3)]
	}
	return string(b)
}

// prefixWorld builds one seeded world: a people and a cards table, an
// engine over them, and 24 messages of one to five tokens.
func prefixWorld(t *testing.T, seed int64) (*Engine, [][]Token) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := warehouse.NewDB()
	str := func(name string, kind warehouse.MatchKind) warehouse.Column {
		return warehouse.Column{Name: name, Type: warehouse.TypeString, Match: kind}
	}
	people, err := db.CreateTable(warehouse.Schema{Table: "people", Key: "id", Columns: []warehouse.Column{
		str("id", warehouse.MatchExact), str("name", warehouse.MatchName),
		str("alias", warehouse.MatchName), str("phone", warehouse.MatchDigits),
	}})
	if err != nil {
		t.Fatal(err)
	}
	cards, err := db.CreateTable(warehouse.Schema{Table: "cards", Key: "id", Columns: []warehouse.Column{
		str("id", warehouse.MatchExact), str("holder", warehouse.MatchName), str("number", warehouse.MatchDigits),
	}})
	if err != nil {
		t.Fatal(err)
	}
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	for i, n := 0, 40+rng.Intn(41); i < n; i++ {
		people.MustInsert(warehouse.StringValue(fmt.Sprintf("p%d", i)),
			warehouse.StringValue(pick(prefixGivens)+" "+pick(prefixSurs)),
			warehouse.StringValue(pick(prefixGivens)), warehouse.StringValue(prefixDigits(rng, 5+rng.Intn(6))))
	}
	for i, n := 0, 30+rng.Intn(31); i < n; i++ {
		cards.MustInsert(warehouse.StringValue(fmt.Sprintf("k%d", i)),
			warehouse.StringValue(pick(prefixGivens)+" "+pick(prefixSurs)), warehouse.StringValue(prefixDigits(rng, 8+rng.Intn(5))))
	}
	e, err := NewEngine(db, Config{Targets: prefixAttrs})
	if err != nil {
		t.Fatal(err)
	}
	name := func() string {
		w := pick(prefixGivens)
		if rng.Intn(2) == 0 {
			w = pick(prefixSurs)
		}
		switch rng.Intn(4) {
		case 0: // garbled: one letter dropped
			i := rng.Intn(len(w))
			w = w[:i] + w[i+1:]
		case 1:
			w = strings.ToUpper(w[:1]) + w[1:]
		}
		return w
	}
	docs := make([][]Token, 24)
	for i := range docs {
		for j := 1 + rng.Intn(5); j > 0; j-- {
			var tok Token
			switch rng.Intn(6) {
			case 0, 1:
				tok = Token{name(), TokName}
			case 2, 3:
				tok = Token{prefixDigits(rng, 2+rng.Intn(7)), TokDigits}
			case 4:
				tok = Token{name(), TokPlace}
			default:
				tok = Token{"zzq", TokName}
			}
			docs[i] = append(docs[i], tok)
			if rng.Intn(6) == 0 {
				docs[i] = append(docs[i], tok)
			}
		}
	}
	return e, docs
}

// TestRankedPrefixProperty holds the ranked prefix to an oracle that
// cannot share it: the naive view keeps no heads and ranks every list
// whole. Over 60 seeded worlds and two rounds of weights, every message
// is linked cold, then warm, by Link and LinkTable at k = 1, 3 and 10
// and by LinkIndividualBest, and each answer must equal the oracle's.
// The SHA-256 of every answer is pinned: the sum the whole-list engine
// computed before heads existed.
func TestRankedPrefixProperty(t *testing.T) {
	t.Parallel()
	const pinned = "54da482a5c7eed22cd182ea1adc3922201aa79f348a27d34dd3e0f834bf4b5a1"
	sum := sha256.New()
	outputs := 0
	for seed := int64(1); seed <= 60; seed++ {
		e, docs := prefixWorld(t, seed)
		whole := e.wholeLists()
		rng := rand.New(rand.NewSource(-seed))
		for round := 0; round < 2; round++ {
			for _, tt := range []TokenType{TokName, TokDigits, TokPlace} {
				for _, at := range prefixAttrs[tt] {
					e.SetWeight(at, prefixWeights[rng.Intn(len(prefixWeights))])
				}
			}
			for di, doc := range docs {
				want := prefixAnswers(whole, doc)
				for _, pass := range []string{"cold", "warm"} {
					got := prefixAnswers(e, doc)
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("seed %d round %d doc %d %v %s, answer %d:\n got %s\nwant %s", seed, round, di, doc, pass, i, got[i], want[i])
						}
						fmt.Fprintln(sum, got[i])
					}
					outputs += len(got)
				}
			}
		}
	}
	if got := fmt.Sprintf("%x", sum.Sum(nil)); got != pinned {
		t.Fatalf("%d answers hash to %s, want %s", outputs, got, pinned)
	}
}

// prefixAnswers is what Link and LinkTable at k = 1, 3 and 10 and
// LinkIndividualBest say about one message, printed: a float prints as
// the shortest form that reads back to its bits.
func prefixAnswers(e *Engine, doc []Token) []string {
	var out []string
	for _, k := range []int{1, 3, 10} {
		out = append(out, fmt.Sprint(e.Link(doc, k)))
		for _, table := range []string{"people", "cards"} {
			out = append(out, fmt.Sprint(e.LinkTable(doc, table, k)))
		}
	}
	for _, table := range []string{"people", "cards"} {
		m, ok := e.LinkIndividualBest(doc, table)
		out = append(out, fmt.Sprint(m, ok))
	}
	return out
}
