package synth

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"bivoc/internal/noise"
	"bivoc/internal/rng"
	"bivoc/internal/warehouse"
)

// Churn-driver categories (§VI: "a few drivers that affect churn are
// competitor tariff, quality of problem resolution, service related
// issues, billing related issues, low awareness of services").
const (
	DriverCompetitor = "competitor tariff"
	DriverResolution = "problem resolution"
	DriverService    = "service issues"
	DriverBilling    = "billing issues"
	DriverAwareness  = "low awareness"
)

// ChurnDrivers returns the driver categories.
func ChurnDrivers() []string {
	return []string{DriverCompetitor, DriverResolution, DriverService, DriverBilling, DriverAwareness}
}

// driverPhrases hold the clean surface expressions of each churn driver;
// the noise models corrupt them per channel.
var driverPhrases = map[string][]string{
	DriverCompetitor: {
		"the competitor offers a cheaper plan than yours",
		"other networks give much better tariff",
		"i am switching to a cheaper provider",
		"your rivals charge half of what you charge",
	},
	DriverResolution: {
		"my problem is still not solved after many calls",
		"nobody resolves my complaint it is pending for weeks",
		"the call center officer assured action but nothing happened",
		"i have to leave as it is not solving my problem",
	},
	DriverService: {
		"the network is always down in my area",
		"calls keep dropping every few minutes",
		"there is no signal at my home",
		"not able to access gprs or connect to internet",
	},
	DriverBilling: {
		"my bill is too high i almost feel robbed when paying",
		"i was wrongly charged for a pack i never requested",
		"the plan is not appropriate my bill keeps increasing",
		"customer was charged for sms without any request for activation",
	},
	DriverAwareness: {
		"i did not know this service was chargeable",
		"nobody told me about the plan conditions",
		"i was never informed about these charges",
	},
}

// competitors are rival providers/card brands mentioned in customer
// mail. Figure 4 of the paper associates "mentions of competitor credit
// cards in the email with the category assigned to the email".
var competitors = []string{"maxcard", "primebank", "globalpay", "unitel", "skyfone"}

// Competitors returns the competitor-brand inventory.
func Competitors() []string { return clone(competitors) }

// Email categories, as a contact-centre agent would assign them.
const (
	CategoryBilling      = "billing"
	CategoryService      = "service"
	CategoryCancellation = "cancellation"
	CategoryGeneral      = "general"
)

// EmailCategories returns the category inventory.
func EmailCategories() []string {
	return []string{CategoryBilling, CategoryService, CategoryCancellation, CategoryGeneral}
}

// churnClosers are leaving statements churners add.
var churnClosers = []string{
	"i want to disconnect my connection",
	"i am porting my number to another operator",
	"please close my account i am leaving",
	"goodbye keep not caring for customers",
}

// routineBodies are ordinary service texts from non-churners.
var routineBodies = []string{
	"please confirm the receipt of payment of rs 500",
	"kindly tell me the balance on my account",
	"i want to recharge my prepaid number",
	"please activate the new data pack on my number",
	"what are the details of my current plan",
	"please send me my bill for last month",
	"i want to change my billing address",
	"how do i activate caller tunes",
	"my recharge was successful thank you",
	"please confirm my payment was received",
}

// TelecomConfig sizes the telecom world. Paper scale: 47,460 emails (3%
// from churners), 289,314 SMS (7.6% from churners), 78% prepaid, 18% of
// emails unlinkable (non-customers). Defaults are laptop-scale; the
// proportions are the paper's, fixed below.
type TelecomConfig struct {
	Seed         uint64
	NumCustomers int
	Emails       int
	SMS          int
}

// The telecom world's fixed shape: the paper's §VI proportions.
const (
	// churnerEmailShare / churnerSMSShare are the fractions of messages
	// authored by (eventual) churners.
	churnerEmailShare = 0.03
	churnerSMSShare   = 0.076
	// nonCustomerEmailShare is the fraction of emails from strangers.
	nonCustomerEmailShare = 0.18
	// spamEmailShare is the fraction of spam among emails.
	spamEmailShare = 0.08
	prepaidShare   = 0.78
	// TelecomMonths is the observation window in months; churn lands in
	// the last one.
	TelecomMonths = 3
)

// regions are the subscribers' home regions.
var regions = []string{"north", "south", "east", "west"}

// DefaultTelecomConfig returns the laptop-scale configuration.
func DefaultTelecomConfig() TelecomConfig {
	return TelecomConfig{
		Seed:         1947,
		NumCustomers: 1500,
		Emails:       2400,
		SMS:          6000,
	}
}

// TelecomCustomer is one subscriber.
type TelecomCustomer struct {
	ID      string
	Given   string
	Surname string
	Phone   string
	Region  string
	Plan    string // "prepaid" | "postpaid"
	Churned bool
	// ChurnMonth is the month index of churn (valid when Churned).
	ChurnMonth int
}

// Name returns the subscriber's full name.
func (c TelecomCustomer) Name() string { return c.Given + " " + c.Surname }

// Message is one generated email or SMS with hidden truth attached.
type Message struct {
	ID      string
	Channel string // "email" | "sms"
	Month   int
	// CustIdx indexes TelecomWorld.Customers, or -1 for a non-customer.
	CustIdx int
	Raw     string // wrapped email / noisy sms, as received
	Spam    bool
	// FromChurner is the hidden label used for training/evaluation.
	FromChurner bool
	// Drivers lists the churn-driver categories expressed (hidden truth).
	Drivers []string
	// Category is the label a contact-centre agent assigns to the email
	// (billing / service / cancellation / general).
	Category string
	// Competitor is the rival brand mentioned, if any.
	Competitor string
}

// TelecomWorld bundles subscribers, their warehouse, and messages.
type TelecomWorld struct {
	Config    TelecomConfig
	Customers []TelecomCustomer
	DB        *warehouse.DB
	Emails    []Message
	SMS       []Message
	rnd       *rng.RNG
}

// NewTelecomWorld generates subscribers, then their email and SMS corpora
// on GOMAXPROCS goroutines while the calling goroutine builds the
// subscribers' structured table. Every message is a function of its index
// alone, so the world does not depend on how many goroutines wrote it.
func NewTelecomWorld(cfg TelecomConfig) (*TelecomWorld, error) {
	if cfg.NumCustomers <= 0 {
		return nil, fmt.Errorf("synth: need positive customer count")
	}
	if cfg.Emails < 0 || cfg.SMS < 0 {
		return nil, fmt.Errorf("synth: negative message count (%d emails, %d sms)", cfg.Emails, cfg.SMS)
	}
	w := &TelecomWorld{Config: cfg, rnd: rng.New(cfg.Seed)}

	// Overall churner base rate: enough churners to author the configured
	// message shares. Make ~8% of subscribers churners.
	custRnd := w.rnd.SplitString("subscribers")
	phoneSeen := map[string]bool{}
	var churners, stayers []int
	for i := 0; i < cfg.NumCustomers; i++ {
		r := custRnd.Split(uint64(i))
		phone := randomPhone(r)
		for phoneSeen[phone] {
			phone = randomPhone(r)
		}
		phoneSeen[phone] = true
		plan := "postpaid"
		if r.Bool(prepaidShare) {
			plan = "prepaid"
		}
		churned := r.Bool(0.08)
		c := TelecomCustomer{
			ID:      fmt.Sprintf("S%05d", i),
			Given:   rng.Pick(r, givenNames),
			Surname: rng.Pick(r, surnames),
			Phone:   phone,
			Region:  rng.Pick(r, regions),
			Plan:    plan,
			Churned: churned,
		}
		if churned {
			c.ChurnMonth = TelecomMonths - 1 // churn lands in the last month
			churners = append(churners, i)
		} else {
			stayers = append(stayers, i)
		}
		w.Customers = append(w.Customers, c)
	}
	if len(stayers) == 0 && cfg.Emails+cfg.SMS > 0 {
		return nil, fmt.Errorf("synth: all %d subscribers churned, so no non-churner writes the routine traffic", cfg.NumCustomers)
	}

	w.Emails = make([]Message, cfg.Emails)
	w.SMS = make([]Message, cfg.SMS)
	corpora := []corpus{
		{channel: "email", out: w.Emails, churnShare: churnerEmailShare, strangerShare: nonCustomerEmailShare, spamShare: spamEmailShare},
		{channel: "sms", out: w.SMS, churnShare: churnerSMSShare, strangerShare: 0.04, spamShare: 0.02},
	}
	for k := range corpora {
		c := &corpora[k]
		c.rnd = w.rnd.SplitString("messages-" + c.channel)
		c.churners, c.stayers = churners, stayers
	}
	wait := parallelFor(cfg.Emails+cfg.SMS, func(i int) {
		c := &corpora[0]
		if i >= len(c.out) {
			i -= len(c.out)
			c = &corpora[1]
		}
		c.out[i] = w.message(c, i)
	})
	db, err := subscriberTable(w.Customers)
	wait()
	if err != nil {
		return nil, err
	}
	w.DB = db
	return w, nil
}

// subscriberTable is the warehouse the telecom world's messages are
// linked against: one row per subscriber.
func subscriberTable(customers []TelecomCustomer) (*warehouse.DB, error) {
	db := warehouse.NewDB()
	subs, err := db.CreateTable(warehouse.Schema{
		Table: "subscribers", Key: "id",
		Columns: []warehouse.Column{
			{Name: "id", Type: warehouse.TypeString, Match: warehouse.MatchExact},
			{Name: "name", Type: warehouse.TypeString, Match: warehouse.MatchName},
			{Name: "phone", Type: warehouse.TypeString, Match: warehouse.MatchDigits},
			{Name: "region", Type: warehouse.TypeString, Match: warehouse.MatchExact},
			{Name: "plan", Type: warehouse.TypeString, Match: warehouse.MatchExact},
			{Name: "churned", Type: warehouse.TypeString, Match: warehouse.MatchExact},
		},
	})
	if err != nil {
		return nil, err
	}
	for _, c := range customers {
		churn := "no"
		if c.Churned {
			churn = "yes"
		}
		subs.MustInsert(
			warehouse.StringValue(c.ID),
			warehouse.StringValue(c.Name()),
			warehouse.StringValue(c.Phone),
			warehouse.StringValue(c.Region),
			warehouse.StringValue(c.Plan),
			warehouse.StringValue(churn),
		)
	}
	return db, nil
}

// parallelFor calls fn once for each index in [0, n), on GOMAXPROCS
// goroutines that take the indices a chunk at a time, and returns at once
// with a function that waits for them all.
func parallelFor(n int, fn func(i int)) (wait func()) {
	const chunk = 64
	var next atomic.Int64
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(chunk)) - chunk
				if lo >= n {
					return
				}
				for i := lo; i < min(lo+chunk, n); i++ {
					fn(i)
				}
			}
		}()
	}
	return wg.Wait
}

// corpus is one channel's messages and the shares they are drawn with.
type corpus struct {
	channel                              string
	out                                  []Message
	churnShare, strangerShare, spamShare float64
	// rnd is the channel's message stream; message i draws from its
	// Split(i) alone.
	rnd               *rng.RNG
	churners, stayers []int // indices into TelecomWorld.Customers
}

// message generates message i of the corpus.
func (w *TelecomWorld) message(c *corpus, i int) Message {
	r := c.rnd.Split(uint64(i))
	m := Message{ID: fmt.Sprintf("%s-%05d", c.channel, i), Channel: c.channel, Month: r.Intn(TelecomMonths), CustIdx: -1}
	switch {
	case r.Bool(c.spamShare):
		m.Spam = true
		m.Raw = w.wrap(r, c.channel, noise.SpamEmail(r), "", "")
	case r.Bool(c.strangerShare):
		// A non-customer writes in; their identity matches nothing.
		given := rng.Pick(r, givenNames)
		sur := rng.Pick(r, surnames)
		body := w.composeBody(r, false, &m)
		m.Raw = w.wrap(r, c.channel, body, given+" "+sur, randomPhone(r))
	default:
		var idx int
		churner := r.Bool(c.churnShare) && len(c.churners) > 0
		if churner {
			idx = c.churners[r.Intn(len(c.churners))]
		} else {
			idx = c.stayers[r.Intn(len(c.stayers))]
		}
		cust := w.Customers[idx]
		m.CustIdx = idx
		m.FromChurner = churner
		body := w.composeBody(r, churner, &m)
		m.Raw = w.wrap(r, c.channel, body, cust.Name(), cust.Phone)
	}
	return m
}

// composeBody assembles the clean message body: identityless core
// content; identity is attached by wrap. Churners draw 1-2 driver
// phrases plus possibly a closer; stayers draw routine bodies and only
// rarely a mild driver phrase.
func (w *TelecomWorld) composeBody(r *rng.RNG, churner bool, m *Message) string {
	var parts []string
	closer := false
	if churner {
		// An eventual churner's messages are not uniformly angry: a bit
		// under half are routine service traffic, which is what bounds
		// detection recall in the paper (53.6% of churners detected).
		if r.Bool(0.35) {
			parts = append(parts, rng.Pick(r, routineBodies))
			m.Category = CategoryGeneral
			return joinParts(parts)
		}
		drivers := ChurnDrivers()
		n := 1 + r.Intn(2)
		for k := 0; k < n; k++ {
			var d string
			if k == 0 && r.Bool(0.4) {
				// Churners disproportionately cite the competition — the
				// §VI driver the business heads all agreed on.
				d = DriverCompetitor
			} else {
				d = drivers[r.Intn(len(drivers))]
			}
			parts = append(parts, w.driverPhrase(r, d, m))
			m.Drivers = append(m.Drivers, d)
		}
		if r.Bool(0.4) {
			closer = true
			parts = append(parts, rng.Pick(r, churnClosers))
		}
	} else {
		parts = append(parts, rng.Pick(r, routineBodies))
		if r.Bool(0.15) {
			// Stayers grumble about billing and service but rarely name a
			// rival; competitor language is churn language.
			stayerDrivers := []string{DriverResolution, DriverService, DriverBilling, DriverAwareness}
			d := stayerDrivers[r.Intn(len(stayerDrivers))]
			if r.Bool(0.06) {
				d = DriverCompetitor
			}
			parts = append(parts, w.driverPhrase(r, d, m))
			m.Drivers = append(m.Drivers, d)
		}
	}
	m.Category = categorize(m.Drivers, closer)
	return joinParts(parts)
}

// driverPhrase realizes one driver mention; competitor-tariff phrases
// name the rival brand, which is what Figure 4's analysis picks up.
func (w *TelecomWorld) driverPhrase(r *rng.RNG, driver string, m *Message) string {
	phrase := rng.Pick(r, driverPhrases[driver])
	if driver == DriverCompetitor && r.Bool(0.8) {
		comp := rng.Pick(r, competitors)
		m.Competitor = comp
		phrase = strings.Replace(phrase, "the competitor", comp, 1)
		phrase = strings.Replace(phrase, "other networks", comp, 1)
		phrase = strings.Replace(phrase, "a cheaper provider", comp, 1)
		phrase = strings.Replace(phrase, "your rivals", comp, 1)
	}
	return phrase
}

// categorize assigns the agent's email category from its content — the
// paper's engagement had agents label emails; our label derives from the
// same signals an agent reads.
func categorize(drivers []string, closer bool) string {
	switch {
	case closer:
		return CategoryCancellation
	case contains(drivers, DriverBilling):
		// A competitor mention inside a billing complaint still files as
		// billing; the association analysis has to discover the
		// competitor-cancellation link statistically, not by construction.
		return CategoryBilling
	case contains(drivers, DriverService), contains(drivers, DriverResolution):
		return CategoryService
	default:
		// Includes competitor-only chatter: an agent files "skyfone is
		// cheaper" as general correspondence unless the customer asks to
		// leave — so the competitor-cancellation association is a
		// statistical discovery, not a labeling rule.
		return CategoryGeneral
	}
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func joinParts(parts []string) string { return strings.Join(parts, ". ") }

// wrap applies channel-appropriate identity attachment and noise.
func (w *TelecomWorld) wrap(r *rng.RNG, channel, body, name, phone string) string {
	if channel == "sms" {
		// SMS: heavy lingo noise; identity is usually just the phone.
		text := body
		if phone != "" && r.Bool(0.7) {
			text += " my number is " + phone
		}
		return noise.New(noise.SMSNoise).Apply(r, text)
	}
	// Email: signature with name (and often phone), light noise, wrapped
	// with headers/disclaimers.
	text := body
	if name != "" {
		text += ". regards " + name
		if phone != "" && r.Bool(0.5) {
			text += " " + phone
		}
	}
	noisy := noise.New(noise.EmailNoise).Apply(r, text)
	from := "customer@example.com"
	if name != "" {
		from = strings.ReplaceAll(name, " ", ".") + "@example.com"
	}
	return noise.WrapEmail(r, noisy, noise.WrapEmailOptions{
		From:       from,
		To:         "care@telco.example",
		Subject:    "customer message",
		QuoteAgent: r.Bool(0.3),
		Promo:      r.Bool(0.2),
		Disclaimer: r.Bool(0.7),
	})
}

// DriverPhraseSeed returns clean example phrases per driver for training
// dictionaries and classifiers.
func DriverPhraseSeed() map[string][]string {
	out := make(map[string][]string, len(driverPhrases))
	for d, ps := range driverPhrases {
		out[d] = clone(ps)
	}
	return out
}
