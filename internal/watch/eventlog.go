package watch

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"legalchain/internal/seglog"
)

// The watchtower's durable memory: an append-only log of structured
// lifecycle events, one JSON record per frame of a seglog under the
// name prefix "events-", so torn tails and bit rot are detected the
// same way in every store of the system. The log is the watchtower's
// recovery anchor: on restart the
// tower replays it to rebuild every per-contract state machine and the
// alert-rule counters, then resumes folding from the highest anchored
// block — it never re-reads chain history it has already digested.
//
// Record types (Event.Type):
//
//	created            contract deployment recognised as a tracked template
//	signed             agreementConfirmed: tenant paid the deposit
//	payment            paidRent: one month of rent settled
//	maintenance        paidMaintenance (V2 clause)
//	modify-pending     versionLinked(direction=1): a successor was linked
//	version-linked     versionLinked(direction=0) on the successor
//	terminated         contractTerminated
//	alert              an alert rule transitioned to firing
//	anchor             end-of-block marker: block folded, rule state snapshot
//
// Every block fold ends with exactly one anchor record, written after
// the block's lifecycle events, so a prefix of the log always describes
// a whole number of folded blocks plus (possibly) a torn tail that
// replay discards.

// Event is one structured watchtower record. The same shape serves the
// durable log, the /timeline endpoint and the in-memory event buffer.
type Event struct {
	Seq      uint64 `json:"seq"`
	Block    uint64 `json:"block"`
	Time     uint64 `json:"time,omitempty"` // block timestamp (unix seconds)
	Type     string `json:"type"`
	Contract string `json:"contract,omitempty"` // hex address
	Template string `json:"template,omitempty"`
	State    string `json:"state,omitempty"` // lifecycle state after the event
	TxHash   string `json:"txHash,omitempty"`

	// Terms, carried on "created" so replay needs no chain probing.
	RentWei    string `json:"rentWei,omitempty"`
	DepositWei string `json:"depositWei,omitempty"`
	Months     uint64 `json:"months,omitempty"`

	// Payment fields.
	Month     uint64 `json:"month,omitempty"`
	AmountWei string `json:"amountWei,omitempty"`

	// Alert fields: the rule, the observed signal value, and every
	// contract implicated (so per-contract timelines include the alert).
	Rule      string   `json:"rule,omitempty"`
	Value     float64  `json:"value,omitempty"`
	Detail    string   `json:"detail,omitempty"`
	Contracts []string `json:"contracts,omitempty"`

	// Anchor field: the alert-engine state at the end of the block,
	// keyed by rule name, so replay restores for-duration counters.
	RuleState map[string]RuleState `json:"ruleState,omitempty"`
}

// eventLog is the tower's seglog. A nil *eventLog (dir unset) is valid
// and drops every append: the tower then lives purely in memory and
// replays nothing on restart.
type eventLog struct{ log *seglog.Log }

const segPrefix = "events-"

// openEventLog opens (creating if needed) the log under dir, replays
// every intact record through fn, truncates any torn tail, and
// positions for appends. dir == "" returns (nil, nil). A directory
// holding the single-file log of the earlier layout, events.log, is
// refused.
func openEventLog(dir string, fn func(*Event)) (*eventLog, error) {
	if dir == "" {
		return nil, nil
	}
	if _, err := os.Stat(filepath.Join(dir, "events.log")); err == nil {
		return nil, fmt.Errorf("watch: %s holds events.log, the single-file event log this version does not read; move it out of the directory and the tower refolds the chain from block 1",
			dir)
	}
	log, _, err := seglog.Open(dir, segPrefix, 0, func(_ seglog.Pos, payload []byte) error {
		var ev Event
		if err := json.Unmarshal(payload, &ev); err != nil {
			// An intact frame with undecodable JSON is corruption the CRC
			// cannot see; stop replay here and truncate like a torn tail.
			return fmt.Errorf("watch: bad event record: %w", err)
		}
		if fn != nil {
			fn(&ev)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("watch: %w", err)
	}
	return &eventLog{log: log}, nil
}

// append writes one framed record exactly as given (the tower owns the
// sequence counter). Nil-safe: an in-memory tower drops the write.
func (l *eventLog) append(ev *Event) error {
	if l == nil {
		return nil
	}
	payload, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if _, err := l.log.Append(payload); err != nil {
		return fmt.Errorf("watch: %w", err)
	}
	return nil
}

// sync flushes appended records to stable storage. Called once per
// folded block, after the anchor record.
func (l *eventLog) sync() error {
	if l == nil {
		return nil
	}
	return l.log.Sync()
}

func (l *eventLog) size() int64 {
	if l == nil {
		return 0
	}
	return l.log.Size()
}

func (l *eventLog) close() error {
	if l == nil {
		return nil
	}
	if err := l.log.Sync(); err != nil {
		l.log.Close()
		return err
	}
	return l.log.Close()
}
