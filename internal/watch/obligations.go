package watch

import "fmt"

// Obligation derivation: the watchtower's domain layer. A lifecycle
// state machine says where a contract *is*; an obligation says what
// must happen *next* and by when. Deadlines are measured in blocks —
// the only clock every node agrees on — with the rent period and the
// modification grace window configurable per tower.
//
// Three obligation kinds cover the rental lifecycle of the paper:
//
//	rent-due              an active lease owes its next month of rent
//	confirm-modification  a linked successor awaits the tenant's word
//	settle-termination    the term is served; the deposit must settle
//
// An obligation is overdue once the folded head is past its due block.
// The set is re-derived after every folded block (it is a pure function
// of contract state + head), so it can never drift from the machine.

// Obligation is one outstanding duty derived from a contract's state.
type Obligation struct {
	Contract  string `json:"contract"`
	Kind      string `json:"kind"` // rent-due | confirm-modification | settle-termination
	DueBlock  uint64 `json:"dueBlock"`
	Overdue   bool   `json:"overdue"`
	OverdueBy uint64 `json:"overdueBy,omitempty"` // blocks past due
	Detail    string `json:"detail,omitempty"`
}

// Obligation kinds.
const (
	kindRentDue       = "rent-due"
	kindConfirmMod    = "confirm-modification"
	kindSettleDeposit = "settle-termination"
)

// dueOf returns the kind and due block of cs's open obligation; a
// contract owes at most one thing at a time.
func (t *Tower) dueOf(cs *contractState) (kind string, due uint64, ok bool) {
	switch cs.State {
	case StateActive, StateSigned:
		// The rent clock starts when the agreement is signed and resets
		// on every payment. Serving the full term converts the duty into
		// the deposit settlement of terminateContract.
		if cs.Months > 0 && cs.MonthsPaid >= cs.Months {
			return kindSettleDeposit, cs.LastPayBlock + t.cfg.RentPeriod, true
		}
		if cs.State == StateActive || cs.MonthsPaid > 0 || cs.SignedBlock > 0 {
			return kindRentDue, cs.LastPayBlock + t.cfg.RentPeriod, true
		}
	case StateModifiedPending:
		return kindConfirmMod, cs.ModifiedBlock + modifyGrace, true
	}
	return "", 0, false
}

// obligationsOf derives the outstanding obligations of one contract at
// folded head block `head`; hex is cs.Addr.Hex().
func (t *Tower) obligationsOf(cs *contractState, hex string, head uint64) []Obligation {
	kind, due, ok := t.dueOf(cs)
	if !ok {
		return nil
	}
	o := Obligation{Contract: hex, Kind: kind, DueBlock: due}
	if head > due {
		o.Overdue = true
		o.OverdueBy = head - due
	}
	switch kind {
	case kindSettleDeposit:
		o.Detail = fmt.Sprintf("term served (%d/%d months): deposit of %s wei refundable on termination",
			cs.MonthsPaid, cs.Months, cs.DepositWei)
	case kindRentDue:
		o.Detail = fmt.Sprintf("month %d of %d: %s wei", cs.MonthsPaid+1, cs.Months, cs.RentWei)
	case kindConfirmMod:
		o.Detail = fmt.Sprintf("successor linked at block %d awaits tenant confirmation", cs.ModifiedBlock)
	}
	return []Obligation{o}
}
