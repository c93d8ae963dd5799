package synth

import (
	"fmt"
	"strings"

	"bivoc/internal/phonetics"
	"bivoc/internal/rng"
	"bivoc/internal/warehouse"
)

// Intent labels for calls (§V.A's three call types; reservation-seeking
// calls further split by how the customer opens).
const (
	IntentStrong  = "strong start"
	IntentWeak    = "weak start"
	IntentService = "service"
)

// Outcome labels.
const (
	OutcomeReservation = "reservation"
	OutcomeUnbooked    = "unbooked"
	OutcomeService     = "service"
)

// Agent is one call-centre agent with latent behavioural propensities.
// Training (§V.C) shifts the propensities of the treated group.
type Agent struct {
	ID   string
	Name string
	// PValueSelling is the probability the agent uses value-selling
	// phrases after quoting a rate.
	PValueSelling float64
	// PDiscountWeak / PDiscountStrong are the probabilities of offering a
	// discount to weak- and strong-start customers.
	PDiscountWeak   float64
	PDiscountStrong float64
	Trained         bool
}

// Customer is one car-rental customer with identity attributes used for
// linking.
type Customer struct {
	ID      string
	Given   string
	Surname string
	Phone   string // 10 digits
	DOB     string // date of birth as 8 digits, YYYYMMDD
	City    string
}

// Name returns the full customer name.
func (c Customer) Name() string { return c.Given + " " + c.Surname }

// Call is one generated customer-agent conversation with its hidden
// truth (which behaviours occurred) and structured outcome.
type Call struct {
	ID         string
	Day        int
	AgentIdx   int
	CustIdx    int
	Intent     string
	UsedValue  bool // agent used value-selling phrases
	UsedDisc   bool // agent offered a discount
	Objected   bool // customer objected to the rate
	Outcome    string
	VehicleIdx int // index into VehicleTypes()
	City       string
	RateQuoted int // dollars per day
	// HandleTimeSec is the call's handle time (talk + hold + wrap-up),
	// the canonical contact-centre KPI (§II: tools track "average handle
	// time, tone, emotion...").
	HandleTimeSec int
	// Transcript is the reference (clean) word sequence; the ASR channel
	// corrupts it downstream. All words are lexicon-pronounceable; digits
	// are spelled out as spoken.
	Transcript []string
}

// OutcomeModel holds the structural parameters tying behaviour to
// conversion. The defaults are calibrated so the measured associations
// land near the paper's Tables III (63/37, 32/68) and IV (59/41, 72/28).
type OutcomeModel struct {
	BaseStrong    float64
	BaseWeak      float64
	ValueBoost    float64
	DiscountBoost float64
}

// DefaultOutcomeModel returns the calibrated parameters.
func DefaultOutcomeModel() OutcomeModel {
	return OutcomeModel{BaseStrong: 0.52, BaseWeak: 0.14, ValueBoost: 0.15, DiscountBoost: 0.45}
}

// ConversionProb returns P(reservation) for a reservation-seeking call.
func (m OutcomeModel) ConversionProb(intent string, usedValue, usedDiscount bool) float64 {
	p := m.BaseWeak
	if intent == IntentStrong {
		p = m.BaseStrong
	}
	if usedValue {
		p += m.ValueBoost
	}
	if usedDiscount {
		p += m.DiscountBoost
	}
	if p > 0.98 {
		p = 0.98
	}
	if p < 0.02 {
		p = 0.02
	}
	return p
}

// CarRentalConfig sizes the car-rental world. The paper's engagement:
// ~90 agents, ~1800 recorded calls per day (25% of traffic), two-month
// observation windows.
type CarRentalConfig struct {
	Seed         uint64
	NumAgents    int
	NumCustomers int
	CallsPerDay  int
	Days         int
}

// The car-rental world's fixed shape; DefaultOutcomeModel ties behaviour
// to outcome.
const (
	// serviceShare is the fraction of service calls.
	serviceShare = 0.25
	// strongShare is the fraction of reservation-seeking calls that open
	// strongly.
	strongShare = 0.5
	// valueShift and discountShift are applied to trained agents'
	// propensities when Trained is set (see TrainAgentSet).
	valueShift    = 0.10
	discountShift = 0.07
)

// DefaultCarRentalConfig returns a laptop-scale configuration with the
// paper's agent count.
func DefaultCarRentalConfig() CarRentalConfig {
	return CarRentalConfig{
		Seed:         2009,
		NumAgents:    90,
		NumCustomers: 600,
		CallsPerDay:  120,
		Days:         10,
	}
}

// CarRentalWorld bundles the generated population, its structured
// warehouse, and the generated calls.
type CarRentalWorld struct {
	Config    CarRentalConfig
	Agents    []Agent
	Customers []Customer
	DB        *warehouse.DB
	Calls     []Call
	rnd       *rng.RNG
}

// NewCarRentalWorld generates agents, customers, and the structured
// tables (customers + reservations), but no calls yet.
func NewCarRentalWorld(cfg CarRentalConfig) (*CarRentalWorld, error) {
	if cfg.NumAgents <= 0 || cfg.NumCustomers <= 0 {
		return nil, fmt.Errorf("synth: need positive agent and customer counts")
	}
	w := &CarRentalWorld{Config: cfg, rnd: rng.New(cfg.Seed)}

	agentRnd := w.rnd.SplitString("agents")
	for i := 0; i < cfg.NumAgents; i++ {
		r := agentRnd.Split(uint64(i))
		given := rng.Pick(r, givenNames)
		sur := rng.Pick(r, surnames)
		w.Agents = append(w.Agents, Agent{
			ID:              fmt.Sprintf("A%02d", i),
			Name:            given + " " + sur,
			PValueSelling:   clamp01(r.Gaussian(0.40, 0.10)),
			PDiscountWeak:   clamp01(r.Gaussian(0.30, 0.08)),
			PDiscountStrong: clamp01(r.Gaussian(0.10, 0.04)),
		})
	}

	custRnd := w.rnd.SplitString("customers")
	phoneSeen := map[string]bool{}
	for i := 0; i < cfg.NumCustomers; i++ {
		r := custRnd.Split(uint64(i))
		phone := randomPhone(r)
		for phoneSeen[phone] {
			phone = randomPhone(r)
		}
		phoneSeen[phone] = true
		w.Customers = append(w.Customers, Customer{
			ID:      fmt.Sprintf("C%04d", i),
			Given:   rng.Pick(r, givenNames),
			Surname: rng.Pick(r, surnames),
			Phone:   phone,
			DOB:     randomDOB(r),
			City:    rng.Pick(r, cities),
		})
	}

	db := warehouse.NewDB()
	custTab, err := db.CreateTable(warehouse.Schema{
		Table: "customers", Key: "id",
		Columns: []warehouse.Column{
			{Name: "id", Type: warehouse.TypeString, Match: warehouse.MatchExact},
			{Name: "name", Type: warehouse.TypeString, Match: warehouse.MatchName},
			{Name: "phone", Type: warehouse.TypeString, Match: warehouse.MatchDigits},
			{Name: "dob", Type: warehouse.TypeString, Match: warehouse.MatchDigits},
			{Name: "city", Type: warehouse.TypeString, Match: warehouse.MatchText},
		},
	})
	if err != nil {
		return nil, err
	}
	for _, c := range w.Customers {
		custTab.MustInsert(
			warehouse.StringValue(c.ID),
			warehouse.StringValue(c.Name()),
			warehouse.StringValue(c.Phone),
			warehouse.StringValue(c.DOB),
			warehouse.StringValue(c.City),
		)
	}
	// The reservations fact table is filled as calls convert.
	if _, err := db.CreateTable(warehouse.Schema{
		Table: "reservations", Key: "id",
		Columns: []warehouse.Column{
			{Name: "id", Type: warehouse.TypeString, Match: warehouse.MatchExact},
			{Name: "customer", Type: warehouse.TypeString, Match: warehouse.MatchExact},
			{Name: "agent", Type: warehouse.TypeString, Match: warehouse.MatchExact},
			{Name: "vehicle", Type: warehouse.TypeString, Match: warehouse.MatchExact},
			{Name: "city", Type: warehouse.TypeString, Match: warehouse.MatchText},
			{Name: "cost", Type: warehouse.TypeInt, Match: warehouse.MatchNumeric},
			{Name: "days", Type: warehouse.TypeInt, Match: warehouse.MatchNumeric},
		},
	}); err != nil {
		return nil, err
	}
	w.DB = db
	return w, nil
}

func clamp01(v float64) float64 {
	if v < 0.01 {
		return 0.01
	}
	if v > 0.95 {
		return 0.95
	}
	return v
}

// randomDOB generates a YYYYMMDD birth date between 1940 and 1990.
func randomDOB(r *rng.RNG) string {
	year := 1940 + r.Intn(50)
	month := 1 + r.Intn(12)
	day := 1 + r.Intn(28)
	return fmt.Sprintf("%04d%02d%02d", year, month, day)
}

func randomPhone(r *rng.RNG) string {
	digits := make([]byte, 10)
	digits[0] = byte('7' + r.Intn(3)) // 7/8/9 leading, Indian-mobile style
	for i := 1; i < 10; i++ {
		digits[i] = byte('0' + r.Intn(10))
	}
	return string(digits)
}

// TrainAgentSet trains a specific set of agents (by index). Experiment
// drivers use this to pick a treated group that is representative of the
// population, matching the paper's "before training the ratios of both
// groups were comparable".
func (w *CarRentalWorld) TrainAgentSet(indices []int) {
	for _, i := range indices {
		if i < 0 || i >= len(w.Agents) {
			continue
		}
		a := &w.Agents[i]
		if a.Trained {
			continue
		}
		a.Trained = true
		a.PValueSelling = clamp01(a.PValueSelling + valueShift)
		a.PDiscountWeak = clamp01(a.PDiscountWeak + discountShift)
	}
}

// GenerateCalls produces days × CallsPerDay calls starting at startDay,
// appending reservations to the warehouse and to w.Calls. Call ids embed
// the day so repeated generation windows (before/after training) stay
// unique.
func (w *CarRentalWorld) GenerateCalls(startDay, days int) []Call {
	var out []Call
	callRnd := w.rnd.SplitString("calls")
	resTab := w.DB.MustTable("reservations")
	for day := startDay; day < startDay+days; day++ {
		for k := 0; k < w.Config.CallsPerDay; k++ {
			id := fmt.Sprintf("call-%04d-%04d", day, k)
			r := callRnd.SplitString(id)
			call := w.generateCall(r, id, day)
			if call.Outcome == OutcomeReservation {
				resTab.MustInsert(
					warehouse.StringValue("R"+id),
					warehouse.StringValue(w.Customers[call.CustIdx].ID),
					warehouse.StringValue(w.Agents[call.AgentIdx].ID),
					warehouse.StringValue(VehicleTypes()[call.VehicleIdx]),
					warehouse.StringValue(call.City),
					warehouse.IntValue(int64(call.RateQuoted*(1+r.Intn(6)))),
					warehouse.IntValue(int64(1+r.Intn(6))),
				)
			}
			w.Calls = append(w.Calls, call)
			out = append(out, call)
		}
	}
	return out
}

func (w *CarRentalWorld) generateCall(r *rng.RNG, id string, day int) Call {
	agentIdx := r.Intn(len(w.Agents))
	custIdx := r.Intn(len(w.Customers))
	agent := w.Agents[agentIdx]
	cust := w.Customers[custIdx]

	call := Call{
		ID:         id,
		Day:        day,
		AgentIdx:   agentIdx,
		CustIdx:    custIdx,
		VehicleIdx: r.Intn(len(vehicleTypes)),
		City:       cust.City,
		RateQuoted: 25 + 5*r.Intn(12),
	}

	if r.Bool(serviceShare) {
		call.Intent = IntentService
		call.Outcome = OutcomeService
		call.Transcript = w.serviceTranscript(r, cust, call)
		call.HandleTimeSec = handleTime(r, call)
		return call
	}

	if r.Bool(strongShare) {
		call.Intent = IntentStrong
	} else {
		call.Intent = IntentWeak
	}
	// Agent behaviour.
	call.UsedValue = r.Bool(agent.PValueSelling)
	pDisc := agent.PDiscountStrong
	if call.Intent == IntentWeak {
		pDisc = agent.PDiscountWeak
	}
	call.UsedDisc = r.Bool(pDisc)
	call.Objected = r.Bool(0.3)

	p := DefaultOutcomeModel().ConversionProb(call.Intent, call.UsedValue, call.UsedDisc)
	if r.Bool(p) {
		call.Outcome = OutcomeReservation
	} else {
		call.Outcome = OutcomeUnbooked
	}
	call.Transcript = w.reservationTranscript(r, cust, call)
	call.HandleTimeSec = handleTime(r, call)
	return call
}

// handleTime models talk time from transcript length (~150 words/min
// conversational speech) plus hold, negotiation and wrap-up components.
func handleTime(r *rng.RNG, call Call) int {
	talk := float64(len(call.Transcript)) * 60.0 / 150.0
	hold := r.ExpFloat64() * 25
	wrap := 20 + r.Float64()*40
	if call.Objected {
		talk += 30 + r.Float64()*60 // objection handling
	}
	if call.UsedDisc {
		talk += 20 + r.Float64()*30 // discount negotiation
	}
	if call.Outcome == OutcomeReservation {
		wrap += 30 + r.Float64()*30 // booking entry
	}
	return int(talk + hold + wrap)
}

// --- transcript templates ---
// Every template word must be pronounceable by the G2P; digits are
// emitted as spoken digit words.

var strongOpenings = [][]string{
	{"i", "would", "like", "to", "make", "a", "booking"},
	{"i", "need", "to", "pick", "up", "a", "car"},
	{"i", "want", "to", "make", "a", "car", "reservation"},
	{"i", "want", "to", "book", "a", "car", "today"},
}

var weakOpenings = [][]string{
	{"can", "i", "know", "the", "rates", "for", "booking", "a", "car"},
	{"i", "would", "like", "to", "know", "the", "rates", "for", "a", "full", "size", "car"},
	{"what", "are", "your", "rates", "for", "the", "weekend"},
	{"how", "much", "would", "a", "car", "cost", "for", "two", "days"},
}

var valuePhrases = [][]string{
	{"that", "is", "a", "good", "rate", "for", "this", "car"},
	{"this", "is", "a", "wonderful", "price", "you", "save", "money"},
	{"it", "is", "a", "fantastic", "car", "the", "latest", "model"},
	{"you", "just", "need", "to", "pay", "this", "low", "amount"},
}

var discountPhrases = [][]string{
	{"i", "can", "offer", "you", "a", "discount", "on", "this", "booking"},
	{"we", "have", "a", "corporate", "program", "discount", "for", "you"},
	{"there", "is", "a", "motor", "club", "discount", "available"},
	{"you", "can", "get", "the", "buying", "club", "rate", "today"},
}

var objections = [][]string{
	{"that", "rate", "is", "too", "high", "for", "me"},
	{"this", "is", "too", "expensive"},
	{"can", "you", "do", "better", "on", "the", "price"},
}

var agentGreeting = []string{"thank", "you", "for", "calling", "please", "tell", "me", "how", "can", "i", "help", "you"}
var agentClosing = []string{"can", "i", "do", "anything", "else", "for", "you", "thank", "you"}

var bookConfirm = [][]string{
	{"okay", "please", "book", "it", "for", "me"},
	{"that", "works", "i", "will", "take", "it"},
	{"yes", "go", "ahead", "with", "the", "booking"},
}

var bookDecline = [][]string{
	{"let", "me", "think", "about", "it", "and", "call", "back"},
	{"i", "will", "check", "other", "options", "thank", "you"},
	{"no", "thank", "you", "not", "today"},
}

var serviceBodies = [][]string{
	{"i", "want", "to", "change", "my", "booking", "to", "next", "week"},
	{"i", "need", "to", "cancel", "my", "reservation"},
	{"can", "you", "confirm", "my", "pick", "up", "time"},
	{"i", "want", "to", "add", "a", "child", "seat", "to", "my", "booking"},
}

func (w *CarRentalWorld) identity(r *rng.RNG, cust Customer) []string {
	out := []string{"my", "name", "is", cust.Given, cust.Surname}
	if r.Bool(0.6) {
		out = append(out, "my", "phone", "number", "is")
		out = append(out, phonetics.SpellDigits(cust.Phone)...)
	}
	// A second identity entity, as in §IV.A.1's example ("suppose that a
	// customer has uttered name, date of birth, and contact telephone
	// number in a call").
	if r.Bool(0.35) {
		out = append(out, "my", "date", "of", "birth", "is")
		out = append(out, phonetics.SpellDigits(cust.DOB)...)
	}
	return out
}

func (w *CarRentalWorld) rateQuote(r *rng.RNG, call Call) []string {
	out := []string{"the", "rate", "is"}
	out = append(out, phonetics.SpellDigits(fmt.Sprintf("%d", call.RateQuoted))...)
	out = append(out, "dollars", "per", "day")
	return out
}

func (w *CarRentalWorld) vehicleMention(r *rng.RNG, call Call) []string {
	ind := vehicleTypes[call.VehicleIdx].Indicators
	words := strings.Fields(rng.Pick(r, ind))
	out := []string{"i", "am", "looking", "for", "a"}
	out = append(out, words...)
	out = append(out, "in")
	out = append(out, strings.Fields(call.City)...)
	return out
}

func (w *CarRentalWorld) reservationTranscript(r *rng.RNG, cust Customer, call Call) []string {
	var t []string
	t = append(t, agentGreeting...)
	if call.Intent == IntentStrong {
		t = append(t, rng.Pick(r, strongOpenings)...)
	} else {
		t = append(t, rng.Pick(r, weakOpenings)...)
	}
	t = append(t, w.identity(r, cust)...)
	t = append(t, w.vehicleMention(r, call)...)
	t = append(t, w.rateQuote(r, call)...)
	if call.Objected {
		t = append(t, rng.Pick(r, objections)...)
	}
	if call.UsedValue {
		t = append(t, rng.Pick(r, valuePhrases)...)
	}
	if call.UsedDisc {
		t = append(t, rng.Pick(r, discountPhrases)...)
	}
	if call.Outcome == OutcomeReservation {
		t = append(t, rng.Pick(r, bookConfirm)...)
	} else {
		t = append(t, rng.Pick(r, bookDecline)...)
	}
	t = append(t, agentClosing...)
	return t
}

func (w *CarRentalWorld) serviceTranscript(r *rng.RNG, cust Customer, call Call) []string {
	var t []string
	t = append(t, agentGreeting...)
	t = append(t, rng.Pick(r, serviceBodies)...)
	t = append(t, w.identity(r, cust)...)
	t = append(t, agentClosing...)
	return t
}

// TemplateWords returns every distinct non-name template word used in
// transcripts, for building the ASR lexicon and training the domain LM.
func TemplateWords() []string {
	seen := map[string]bool{}
	var out []string
	add := func(groups ...[][]string) {
		for _, g := range groups {
			for _, phrase := range g {
				for _, w := range phrase {
					if !seen[w] {
						seen[w] = true
						out = append(out, w)
					}
				}
			}
		}
	}
	add(strongOpenings, weakOpenings, valuePhrases, discountPhrases,
		objections, bookConfirm, bookDecline, serviceBodies)
	add([][]string{agentGreeting, agentClosing})
	add([][]string{{"my", "name", "is", "phone", "number", "the", "rate",
		"dollars", "per", "day", "i", "am", "looking", "for", "a", "in",
		"date", "of", "birth"}})
	// Iterate indicators in declaration order (not map order): lexicon
	// insertion order determines trie node numbering, which decode
	// tie-breaking depends on — it must be identical across runs.
	for _, v := range vehicleTypes {
		for _, ind := range v.Indicators {
			for _, w := range strings.Fields(ind) {
				if !seen[w] {
					seen[w] = true
					out = append(out, w)
				}
			}
		}
	}
	return out
}

// TrainingSentences returns representative clean sentences for LM
// training (the "call center specific text" of §IV.A.1).
func TrainingSentences() [][]string {
	var out [][]string
	add := func(groups ...[][]string) {
		for _, g := range groups {
			out = append(out, g...)
		}
	}
	add(strongOpenings, weakOpenings, valuePhrases, discountPhrases,
		objections, bookConfirm, bookDecline, serviceBodies)
	out = append(out, agentGreeting, agentClosing)
	out = append(out, []string{"my", "name", "is", "john", "smith"})
	out = append(out, []string{"my", "phone", "number", "is", "nine", "eight", "seven", "six", "five", "four", "three", "two", "one", "zero"})
	out = append(out, []string{"my", "date", "of", "birth", "is", "one", "nine", "seven", "five", "zero", "three", "one", "two"})
	out = append(out, []string{"the", "rate", "is", "five", "zero", "dollars", "per", "day"})
	out = append(out, []string{"i", "am", "looking", "for", "a", "full", "size", "in", "new", "york"})
	return out
}
