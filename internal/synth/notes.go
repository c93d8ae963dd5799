package synth

import (
	"fmt"
	"strings"

	"bivoc/internal/noise"
	"bivoc/internal/rng"
)

// Agent notes are the fourth VoC channel of Figure 1 ("Contact center
// notes: the cust secratory called up and he inf tht he was not able to
// access GPRS..."). Only ~25% of calls are recorded (§V.A: "about 1800
// calls (about 25% of all calls) get recorded"), but agents write a
// wrap-up note for every call — so the notes channel has full coverage
// at the cost of heavy shorthand noise.

var noteIntentClauses = map[string][]string{
	IntentStrong:  {"customer called to make a booking", "customer wanted to book a car", "customer requested a reservation"},
	IntentWeak:    {"customer enquired about the rates", "customer asked for rate information", "customer wanted to know the booking rates"},
	IntentService: {"customer called about an existing booking", "customer wanted to change the booking", "customer had a service request"},
}

var noteOutcomeClauses = map[string][]string{
	OutcomeReservation: {"booking done", "reservation completed", "customer confirmed the booking"},
	OutcomeUnbooked:    {"customer did not book", "customer will call back", "no booking made"},
	OutcomeService:     {"request registered", "details updated", "informed the customer"},
}

// AgentNote returns the wrap-up note for a call, with agent-note
// shorthand noise applied. Deterministic per call id.
func (w *CarRentalWorld) AgentNote(call Call) string {
	r := w.rnd.SplitString("note-" + call.ID)
	cust := w.Customers[call.CustIdx]
	var parts []string
	parts = append(parts, rng.Pick(r, noteIntentClauses[call.Intent]))
	if r.Bool(0.7) {
		parts = append(parts, "customer name "+cust.Name())
	}
	if call.Intent != IntentService {
		parts = append(parts, "wanted a "+VehicleTypes()[call.VehicleIdx]+" in "+call.City)
		parts = append(parts, fmt.Sprintf("quoted rate %d dollars per day", call.RateQuoted))
		if call.Objected {
			parts = append(parts, "customer said the rate was too high")
		}
		if call.UsedValue {
			parts = append(parts, "explained it was a good rate and a great car")
		}
		if call.UsedDisc {
			parts = append(parts, "offered a discount under the corporate program")
		}
	}
	parts = append(parts, rng.Pick(r, noteOutcomeClauses[call.Outcome]))
	clean := strings.Join(parts, ". ")
	return noise.New(noise.AgentNoteNoise).Apply(r, clean)
}
