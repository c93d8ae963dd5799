package linker

import (
	"fmt"
	"testing"

	"bivoc/internal/rng"
	"bivoc/internal/warehouse"
)

// Multi-type identification at scale: a corpus of documents that each
// reference one of three entity types (customer / transaction / card),
// evaluated before and after EM weight learning. This is the §IV.B
// scenario end to end — including the overlapping-attribute ambiguity
// the per-type weights exist to resolve.

func multiTypeWorld(t *testing.T, n int) (*warehouse.DB, []Customer3) {
	t.Helper()
	db := warehouse.NewDB()
	customers, err := db.CreateTable(warehouse.Schema{
		Table: "customers", Key: "id",
		Columns: []warehouse.Column{
			{Name: "id", Type: warehouse.TypeString, Match: warehouse.MatchExact},
			{Name: "name", Type: warehouse.TypeString, Match: warehouse.MatchName},
			{Name: "phone", Type: warehouse.TypeString, Match: warehouse.MatchDigits},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	transactions, err := db.CreateTable(warehouse.Schema{
		Table: "transactions", Key: "id",
		Columns: []warehouse.Column{
			{Name: "id", Type: warehouse.TypeString, Match: warehouse.MatchExact},
			{Name: "customer", Type: warehouse.TypeString, Match: warehouse.MatchName},
			{Name: "amount", Type: warehouse.TypeFloat, Match: warehouse.MatchNumeric},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cards, err := db.CreateTable(warehouse.Schema{
		Table: "cards", Key: "id",
		Columns: []warehouse.Column{
			{Name: "id", Type: warehouse.TypeString, Match: warehouse.MatchExact},
			{Name: "number", Type: warehouse.TypeString, Match: warehouse.MatchDigits},
			{Name: "holder", Type: warehouse.TypeString, Match: warehouse.MatchName},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	givens := []string{"alice", "bruno", "carla", "dmitri", "elena", "farid", "greta", "hassan", "ingrid", "jorge"}
	surs := []string{"keller", "lindqvist", "moreau", "novak", "okafor", "petrov", "quinn", "rossi", "santos", "tanaka"}
	var out []Customer3
	for i := 0; i < n; i++ {
		c := Customer3{
			ID:    fmt.Sprintf("c%03d", i),
			Name:  givens[r.Intn(len(givens))] + " " + surs[r.Intn(len(surs))],
			Phone: fmt.Sprintf("9%09d", r.Intn(1000000000)),
		}
		out = append(out, c)
		customers.MustInsert(
			warehouse.StringValue(c.ID),
			warehouse.StringValue(c.Name),
			warehouse.StringValue(c.Phone),
		)
		transactions.MustInsert(
			warehouse.StringValue("t"+c.ID),
			warehouse.StringValue(c.Name),
			warehouse.IntValue(int64(100+i*13)),
		)
		cards.MustInsert(
			warehouse.StringValue("k"+c.ID),
			warehouse.StringValue(fmt.Sprintf("4%015d", r.Intn(1000000000))),
			warehouse.StringValue(c.Name),
		)
	}
	return db, out
}

// Customer3 is a test-world customer.
type Customer3 struct {
	ID    string
	Name  string
	Phone string
}

func multiTypeEngine(t *testing.T, db *warehouse.DB) *Engine {
	t.Helper()
	e, err := NewEngine(db, Config{Targets: map[TokenType][]Attribute{
		TokName: {
			{Table: "customers", Column: "name"},
			{Table: "transactions", Column: "customer"},
			{Table: "cards", Column: "holder"},
		},
		TokDigits: {
			{Table: "customers", Column: "phone"},
			{Table: "cards", Column: "number"},
		},
		TokAmount: {
			{Table: "transactions", Column: "amount"},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func splitName(full string) (string, string) {
	for i := 0; i < len(full); i++ {
		if full[i] == ' ' {
			return full[:i], full[i+1:]
		}
	}
	return full, ""
}

func TestMultiTypeCorpusIdentification(t *testing.T) {
	db, customers := multiTypeWorld(t, 60)
	e := multiTypeEngine(t, db)

	// Customer documents: name + phone. They must resolve to the
	// customers table (phone evidence), not transactions or cards.
	custTab := db.MustTable("customers")
	correct := 0
	for _, c := range customers[:30] {
		given, sur := splitName(c.Name)
		tokens := []Token{
			{Text: given, Type: TokName},
			{Text: sur, Type: TokName},
			{Text: c.Phone, Type: TokDigits},
		}
		m := e.Link(tokens, 1)
		if len(m) == 1 && m[0].Table == "customers" &&
			custTab.GetString(m[0].Row, "id") == c.ID {
			correct++
		}
	}
	if correct < 27 {
		t.Errorf("customer-doc identification: %d/30", correct)
	}

	// Transaction documents: name + exact amount → transactions type.
	txTab := db.MustTable("transactions")
	txCorrect := 0
	for i, c := range customers[:30] {
		given, sur := splitName(c.Name)
		tokens := []Token{
			{Text: given, Type: TokName},
			{Text: sur, Type: TokName},
			{Text: fmt.Sprintf("%d", 100+i*13), Type: TokAmount},
		}
		m := e.Link(tokens, 1)
		if len(m) == 1 && m[0].Table == "transactions" &&
			txTab.GetString(m[0].Row, "id") == "t"+c.ID {
			txCorrect++
		}
	}
	if txCorrect < 20 {
		t.Errorf("transaction-doc identification: %d/30", txCorrect)
	}
}

func TestMultiTypeEMImprovesOrPreserves(t *testing.T) {
	db, customers := multiTypeWorld(t, 60)

	// Mixed corpus: half customer docs, half transaction docs. Customer i
	// is row i of each table.
	var docs [][]Token
	var gold []*GoldLabel
	for i, c := range customers {
		given, sur := splitName(c.Name)
		if i%2 == 0 {
			docs = append(docs, []Token{
				{Text: given, Type: TokName}, {Text: sur, Type: TokName},
				{Text: c.Phone, Type: TokDigits},
			})
			gold = append(gold, &GoldLabel{Table: "customers", Row: warehouse.RowID(i)})
		} else {
			docs = append(docs, []Token{
				{Text: given, Type: TokName}, {Text: sur, Type: TokName},
				{Text: fmt.Sprintf("%d", 100+i*13), Type: TokAmount},
			})
			gold = append(gold, &GoldLabel{Table: "transactions", Row: warehouse.RowID(i)})
		}
	}
	uniform := multiTypeEngine(t, db)
	before := uniform.Evaluate(docs, gold, 1)

	em := multiTypeEngine(t, db)
	em.LearnWeights(docs, 5)
	after := em.Evaluate(docs, gold, 1)

	recall := func(r EvalResult) float64 { return float64(r.Correct) / float64(r.Docs) }
	if recall(after) < recall(before)-0.05 {
		t.Errorf("EM hurt multi-type recall: %v → %v", recall(before), recall(after))
	}
	if recall(after) < 0.5 {
		t.Errorf("multi-type recall too low after EM: %v", recall(after))
	}
}
