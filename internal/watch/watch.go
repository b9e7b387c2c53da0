// Package watch is the contract watchtower: the domain-observability
// tier above the ledger. It subscribes to the chain's head hub and
// folds every sealed block into per-contract lifecycle state machines
// (drafted → signed → active → modified-pending → terminated — the
// paper's Fig. 4 states), derives obligations with block-denominated
// deadlines (next rent due, unconfirmed modification age, deposit at
// termination), and emits what it learns three ways:
//
//  1. a bounded in-memory event buffer that feeds the /timeline
//     endpoint and the legalctl watch/top terminal views;
//  2. a metric surface (metrics.go) in the process-wide registry —
//     contracts by state, overdue obligations, payment lag;
//  3. an alert rule engine (rules.go) whose firings become event:alert
//     SSE frames, log records and the watch_alerts_firing gauge.
//
// The tower is a pure consumer: it takes a hub subscription like any
// dashboard and costs the seal path nothing. It stores nothing either:
// its state is the fold of the chain from block 1, so a restarted tower
// refolds the chain it watches and cannot disagree with it, even when
// the chain itself lost blocks in a crash. A refold gives the same
// states, events and alerts as a tower that never stopped (the restart
// property test in replay_test.go).
package watch

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"legalchain/internal/abi"
	"legalchain/internal/chain"
	"legalchain/internal/contracts"
	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
)

// Lifecycle states of a tracked contract.
const (
	StateDrafted         = "drafted"          // deployed, awaiting the tenant
	StateSigned          = "signed"           // deposit paid (agreementConfirmed)
	StateActive          = "active"           // at least one rent payment
	StateModifiedPending = "modified-pending" // successor linked, unconfirmed
	StateTerminated      = "terminated"
)

var allStates = []string{StateDrafted, StateSigned, StateActive, StateModifiedPending, StateTerminated}

// Source is the chain surface the tower consumes: an immutable head
// view plus a hub subscription. *chain.Blockchain satisfies it.
type Source interface {
	View() *chain.HeadView
	SubscribeHeads(buf int) *chain.Subscription
}

// Config tunes one tower.
type Config struct {
	// RentPeriod is the rent deadline in blocks: after a payment (or the
	// signing) the next month is due within this many blocks. Blocks are
	// the devnet's month-proxy — the only clock all parties share.
	RentPeriod uint64
	// Rules are the alert rules evaluated after every folded block.
	Rules []Rule
	// MemEvents bounds the in-memory event buffer serving /timeline.
	// 0 picks the default.
	MemEvents int
}

const (
	defaultRentPeriod = 5
	// modifyGrace is how many blocks a linked-but-unconfirmed successor
	// may stay pending before the confirm-modification obligation is
	// overdue.
	modifyGrace      = 2
	defaultMemEvents = 65536
	maxAlertHistory  = 1024
)

// contractState is one lifecycle state machine.
type contractState struct {
	Addr          ethtypes.Address
	Template      string
	State         string
	CreatedBlock  uint64
	SignedBlock   uint64
	LastPayBlock  uint64 // last rent payment (or signing); the rent clock
	LastPayTime   uint64
	ModifiedBlock uint64
	TermBlock     uint64
	MonthsPaid    uint64
	Months        uint64
	RentWei       string
	DepositWei    string

	// due is the open obligation's due block when owes is set; applyLocked
	// refreshes both after every event, so the per-block overdue scan
	// derives nothing.
	due  uint64
	owes bool
}

// Event is one structured watchtower record, served by the /timeline
// endpoint and the in-memory event buffer. Types (Event.Type):
//
//	created            contract deployment recognised as a tracked template
//	signed             agreementConfirmed: tenant paid the deposit
//	payment            paidRent: one month of rent settled
//	maintenance        paidMaintenance (V2 clause)
//	modify-pending     versionLinked(direction=1): a successor was linked
//	version-linked     versionLinked(direction=0) on the successor
//	terminated         contractTerminated
//	alert              an alert rule transitioned to firing
type Event struct {
	Seq      uint64 `json:"seq"`
	Block    uint64 `json:"block"`
	Time     uint64 `json:"time,omitempty"` // block timestamp (unix seconds)
	Type     string `json:"type"`
	Contract string `json:"contract,omitempty"` // hex address
	Template string `json:"template,omitempty"`
	State    string `json:"state,omitempty"` // lifecycle state after the event
	TxHash   string `json:"txHash,omitempty"`

	// Terms, carried on "created".
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
}

// Alert is one rule firing, kept in a bounded history for the API and
// the SSE stream.
type Alert struct {
	Seq       uint64   `json:"seq"`
	Rule      string   `json:"rule"`
	Expr      string   `json:"expr,omitempty"`
	Block     uint64   `json:"block"`
	Time      uint64   `json:"time,omitempty"`
	Value     float64  `json:"value"`
	Message   string   `json:"message"`
	Contracts []string `json:"contracts,omitempty"`
}

// Tower folds sealed blocks into contract state machines. Create with
// New, start the background consumer with Start, stop with Close.
// Sync/SyncView fold synchronously and are safe concurrently with the
// background loop — whoever gets the mutex first does the work.
type Tower struct {
	src Source
	cfg Config

	// rebuilt is the head when the tower was built: folding up to it is
	// a rebuild of history, not lag, so those blocks fold with fold_lag 0.
	rebuilt uint64

	mu        sync.Mutex
	seq       uint64
	folded    uint64 // highest folded block
	contracts map[ethtypes.Address]*contractState
	tracked   []*contractState // the same contracts in creation order, for scans
	states    map[string]int   // tracked contracts per lifecycle state
	events    []Event          // ring of at most MemEvents; the oldest is events[next]
	next      int
	alerts    []Alert
	fired     uint64 // cumulative alert firings
	skipped   uint64 // blocks whose bodies were unavailable during fold
	rules     *ruleEngine

	// Convergence accounting: residual backlog (head − folded) observed
	// at the end of each fold batch. Unlike an arbitrary instantaneous
	// sample — which on a loaded box mostly measures how long the fold
	// goroutine waited for a CPU — this says whether folding keeps up:
	// a tower that converges leaves ~0 behind every time it runs.
	convSamples atomic.Uint64
	convSum     atomic.Uint64
	convMax     atomic.Uint64

	stop chan struct{}
	done chan struct{}
}

// ConvergenceLag reports the mean and peak residual backlog in blocks
// measured at fold-batch boundaries, and the number of batches. This is
// the loadgen watch-lag gate's input.
func (t *Tower) ConvergenceLag() (mean float64, max uint64, samples uint64) {
	n := t.convSamples.Load()
	if n == 0 {
		return 0, 0, 0
	}
	return float64(t.convSum.Load()) / float64(n), t.convMax.Load(), n
}

// FoldDelay reports the p50 and p99, in seconds, of the publish →
// fold-start delay of fold batches, estimated from the process-wide
// legalchain_watch_fold_delay_seconds histogram; zero before any batch.
func (t *Tower) FoldDelay() (p50, p99 float64) {
	if mFoldDelay.Count() == 0 {
		return 0, 0
	}
	return mFoldDelay.Quantile(0.5), mFoldDelay.Quantile(0.99)
}

// rentalABI is the decode surface for every tracked template:
// RentalAgreementV2 inherits BaseRental, so its ABI carries all base
// events and getters plus the V2 additions.
var (
	rentalABIOnce sync.Once
	rentalABI     *abi.ABI
)

func loadRentalABI() *abi.ABI {
	rentalABIOnce.Do(func() {
		art, err := contracts.Artifact("RentalAgreementV2")
		if err != nil {
			panic("watch: compile RentalAgreementV2: " + err.Error())
		}
		rentalABI = art.ABI
	})
	return rentalABI
}

// New builds a tower over src. It reads nothing, so it cannot fail (the
// error result is always nil): the first Sync, or Start, folds the chain
// from block 1.
func New(src Source, cfg Config) (*Tower, error) {
	if cfg.RentPeriod == 0 {
		cfg.RentPeriod = defaultRentPeriod
	}
	if cfg.MemEvents == 0 {
		cfg.MemEvents = defaultMemEvents
	}
	loadRentalABI()
	return &Tower{
		src:       src,
		cfg:       cfg,
		rebuilt:   src.View().BlockNumber(),
		contracts: map[ethtypes.Address]*contractState{},
		states:    map[string]int{},
		rules:     newRuleEngine(cfg.Rules),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}, nil
}

// Start launches the background hub consumer. The tower immediately
// catches up to the current head, then folds each published view as it
// arrives.
func (t *Tower) Start() {
	go t.run()
}

// Close stops the consumer, if started.
func (t *Tower) Close() {
	select {
	case <-t.stop:
	default:
		close(t.stop)
	}
	select {
	case <-t.done:
	default:
		// Start was never called; nothing to wait for.
	}
}

func (t *Tower) run() {
	defer close(t.done)
	sub := t.src.SubscribeHeads(256)
	defer sub.Close()
	t.Sync()
	for {
		select {
		case <-t.stop:
			return
		case <-sub.Wait():
			// Views are cumulative: folding the newest covers every
			// event of the wake (and any gap).
			v, alive := sub.Newest()
			if v != nil {
				t.SyncView(v)
			}
			if !alive {
				return
			}
		}
	}
}

// Sync folds everything up to the source's current head. Synchronous;
// safe concurrently with the background loop.
func (t *Tower) Sync() { t.SyncView(t.src.View()) }

// SyncView folds everything up to v's head. A view at or behind the
// folded height is a no-op, so concurrent callers never double-fold.
// A batch that folds a block past the build-time head observes the
// time from v's publication to its start, the tower's wake-up delay.
func (t *Tower) SyncView(v *chain.HeadView) {
	t.mu.Lock()
	defer t.mu.Unlock()
	head := v.BlockNumber()
	if head > t.folded && head > t.rebuilt {
		mFoldDelay.ObserveSince(v.PublishedAt())
	}
	folded := false
	for n := t.folded + 1; n <= head; n++ {
		t.foldBlockLocked(v, n)
		folded = true
	}
	t.updateGaugesLocked(head)
	if folded {
		residual := uint64(0)
		if cur := t.src.View().BlockNumber(); cur > t.folded {
			residual = cur - t.folded
		}
		t.convSamples.Add(1)
		t.convSum.Add(residual)
		for {
			old := t.convMax.Load()
			if residual <= old || t.convMax.CompareAndSwap(old, residual) {
				break
			}
		}
	}
}

// foldBlockLocked digests one block: creations are probed for tracked
// templates, logs are decoded into lifecycle events, and, when rules
// are set, obligations and the rules are evaluated at this height.
func (t *Tower) foldBlockLocked(v *chain.HeadView, n uint64) {
	var blockTime uint64
	b, ok := v.BlockByNumber(n)
	if ok {
		blockTime = b.Header.Time
		for _, rcpt := range v.ReceiptsOf(n) {
			if rcpt.Status == 1 && rcpt.ContractAddress != nil {
				if ev := t.probeCreation(v, rcpt.From, *rcpt.ContractAddress); ev != nil {
					ev.Block, ev.Time = n, blockTime
					ev.TxHash = rcpt.TxHash.Hex()
					t.recordLocked(ev)
				}
			}
			for _, lg := range rcpt.Logs {
				cs := t.contracts[lg.Address]
				if cs == nil {
					continue
				}
				ev := t.decodeLog(v, cs, lg)
				if ev == nil {
					continue
				}
				ev.Block, ev.Time = n, blockTime
				ev.TxHash = rcpt.TxHash.Hex()
				t.recordLocked(ev)
			}
		}
	} else {
		// Body unavailable (evicted with no journal): the block's events
		// are unrecoverable. Count it folded anyway so the tower keeps pace.
		t.skipped++
	}
	t.folded = n
	mBlocksFolded.Inc()
	if len(t.rules.rules) == 0 {
		return
	}

	// Domain signals at this height, then the alert rules over them.
	// Blocks up to the build-time head are a rebuild, not lag.
	lag := v.BlockNumber() - n
	if n <= t.rebuilt {
		lag = 0
	}
	overdue := t.overdueLocked(n)
	var implicated []string
	for _, f := range t.rules.eval(t.signalsLocked(lag, overdue)) {
		if implicated == nil {
			implicated = t.overdueContractsLocked(n)
		}
		ev := &Event{
			Type:      "alert",
			Block:     n,
			Time:      blockTime,
			Rule:      f.rule.Name,
			Value:     f.value,
			Detail:    fmt.Sprintf("%s: %s (value %g) held %d block(s)", f.rule.Name, f.rule.Expr(), f.value, maxU64(f.rule.ForBlocks, 1)),
			Contracts: implicated,
		}
		t.recordLocked(ev)
		mAlertsTotal.Inc()
	}
}

// recordLocked is the single write path for lifecycle and alert
// events: assign a sequence number, apply to the state machines, stamp
// the resulting state, buffer, count.
func (t *Tower) recordLocked(ev *Event) {
	t.seq++
	ev.Seq = t.seq
	t.applyLocked(ev)
	var cs *contractState
	if addr, err := ethtypes.ParseAddress(ev.Contract); err == nil {
		cs = t.contracts[addr]
	}
	if cs != nil {
		ev.State = cs.State
	}
	t.bufferLocked(ev)
	tmpl := ev.Template
	if cs != nil {
		tmpl = cs.Template
	}
	if tmpl == "" {
		tmpl = "-"
	}
	mEvents.With(tmpl, ev.Type).Inc()
}

// applyLocked folds one event into the state machines and keeps the
// per-state count in step with them.
func (t *Tower) applyLocked(ev *Event) {
	addr, _ := ethtypes.ParseAddress(ev.Contract)
	cs := t.contracts[addr]
	switch ev.Type {
	case "created":
		// A creation receipt's address derives from the sender's nonce,
		// so no address is created twice.
		cs = &contractState{
			Addr:         addr,
			Template:     ev.Template,
			State:        StateDrafted,
			CreatedBlock: ev.Block,
			Months:       ev.Months,
			RentWei:      ev.RentWei,
			DepositWei:   ev.DepositWei,
		}
		t.contracts[addr] = cs
		t.tracked = append(t.tracked, cs)
		t.states[StateDrafted]++
	case "signed":
		if cs != nil {
			t.setStateLocked(cs, StateSigned)
			cs.SignedBlock = ev.Block
			cs.LastPayBlock = ev.Block
			cs.LastPayTime = ev.Time
		}
	case "payment":
		if cs != nil {
			cs.MonthsPaid = ev.Month
			cs.LastPayBlock = ev.Block
			cs.LastPayTime = ev.Time
			if cs.State == StateSigned {
				t.setStateLocked(cs, StateActive)
			}
		}
	case "modify-pending":
		if cs != nil {
			if cs.State == StateSigned || cs.State == StateActive {
				t.setStateLocked(cs, StateModifiedPending)
			}
			cs.ModifiedBlock = ev.Block
		}
	case "terminated":
		if cs != nil {
			t.setStateLocked(cs, StateTerminated)
			cs.TermBlock = ev.Block
		}
	case "alert":
		t.fired++
		t.alerts = append(t.alerts, Alert{
			Seq: ev.Seq, Rule: ev.Rule, Block: ev.Block, Time: ev.Time,
			Value: ev.Value, Message: ev.Detail, Contracts: ev.Contracts,
		})
		if len(t.alerts) > maxAlertHistory {
			t.alerts = t.alerts[len(t.alerts)-maxAlertHistory:]
		}
	}
	if cs != nil {
		_, cs.due, cs.owes = t.dueOf(cs)
	}
}

// setStateLocked moves cs to state s.
func (t *Tower) setStateLocked(cs *contractState, s string) {
	t.states[cs.State]--
	t.states[s]++
	cs.State = s
}

// bufferLocked adds ev to the bounded in-memory buffer. The buffer
// grows to MemEvents slots, then each event overwrites the oldest.
func (t *Tower) bufferLocked(ev *Event) {
	if len(t.events) < t.cfg.MemEvents {
		t.events = append(t.events, *ev)
		return
	}
	t.events[t.next] = *ev
	t.next = (t.next + 1) % len(t.events)
}

// bufferedLocked returns the buffered events, oldest first, as two runs.
func (t *Tower) bufferedLocked() [2][]Event {
	return [2][]Event{t.events[t.next:], t.events[:t.next]}
}

// probeCreation classifies a fresh deployment. A contract answering the
// rental getters (rent, deposit, contractTime) is a tracked rental;
// maintenanceFee distinguishes the V2 template. Anything else — data
// stores, notaries, escrows — is left to its own observers.
func (t *Tower) probeCreation(v *chain.HeadView, from, addr ethtypes.Address) *Event {
	rent, ok1 := callUint(v, from, addr, "rent")
	dep, ok2 := callUint(v, from, addr, "deposit")
	months, ok3 := callUint(v, from, addr, "contractTime")
	if !ok1 || !ok2 || !ok3 {
		return nil
	}
	template := "BaseRental"
	if _, ok := callUint(v, from, addr, "maintenanceFee"); ok {
		template = "RentalAgreementV2"
	}
	return &Event{
		Type:       "created",
		Contract:   addr.Hex(),
		Template:   template,
		RentWei:    rent.String(),
		DepositWei: dep.String(),
		Months:     months.Uint64(),
	}
}

// callUint executes a zero-argument uint getter against the view.
func callUint(v *chain.HeadView, from, addr ethtypes.Address, name string) (uint256.Int, bool) {
	input, err := loadRentalABI().Pack(name)
	if err != nil {
		return uint256.Zero, false
	}
	res := v.Call(from, &addr, input, uint256.Zero, 0)
	if res.Err != nil || len(res.Return) < 32 {
		return uint256.Zero, false
	}
	vals, err := loadRentalABI().Unpack(name, res.Return)
	if err != nil || len(vals) == 0 {
		return uint256.Zero, false
	}
	u, ok := vals[0].(uint256.Int)
	return u, ok
}

// decodeLog translates one log of a tracked contract into a lifecycle
// event, observing the payment-lag histogram along the way.
func (t *Tower) decodeLog(v *chain.HeadView, cs *contractState, lg *ethtypes.Log) *Event {
	dec, err := loadRentalABI().DecodeLog(lg)
	if err != nil {
		return nil
	}
	ev := &Event{Contract: cs.Addr.Hex()}
	switch dec.Name {
	case "agreementConfirmed":
		ev.Type = "signed"
	case "paidRent":
		ev.Type = "payment"
		if m, ok := dec.Args["month"].(uint256.Int); ok {
			ev.Month = m.Uint64()
		}
		if a, ok := dec.Args["amount"].(uint256.Int); ok {
			ev.AmountWei = a.String()
		}
		t.observePaymentLag(v, cs, lg.BlockNumber)
	case "paidMaintenance":
		ev.Type = "maintenance"
		if a, ok := dec.Args["amount"].(uint256.Int); ok {
			ev.AmountWei = a.String()
		}
	case "contractTerminated":
		ev.Type = "terminated"
		if a, ok := dec.Args["refunded"].(uint256.Int); ok {
			ev.AmountWei = a.String()
		}
	case "versionLinked":
		dir, _ := dec.Args["direction"].(uint256.Int)
		if neighbour, ok := dec.Args["neighbour"].(ethtypes.Address); ok {
			ev.Detail = neighbour.Hex()
		}
		if dir.Uint64() == 1 {
			// setNext on the predecessor: a successor version exists and
			// awaits confirmation.
			ev.Type = "modify-pending"
		} else {
			ev.Type = "version-linked"
		}
	default:
		return nil
	}
	return ev
}

// observePaymentLag records how late a rent payment landed relative to
// its due block, in seconds of block time. On-time payments observe 0.
func (t *Tower) observePaymentLag(v *chain.HeadView, cs *contractState, payBlock uint64) {
	due := cs.LastPayBlock + t.cfg.RentPeriod
	if payBlock <= due {
		mPaymentLag.Observe(0)
		return
	}
	dueBlock, ok := v.BlockByNumber(due)
	pb, ok2 := v.BlockByNumber(payBlock)
	if !ok || !ok2 || pb.Header.Time < dueBlock.Header.Time {
		return
	}
	mPaymentLag.Observe(float64(pb.Header.Time - dueBlock.Header.Time))
}

// overdueLocked counts the obligations overdue at head.
func (t *Tower) overdueLocked(head uint64) int {
	count := 0
	for _, cs := range t.tracked {
		if cs.owes && head > cs.due {
			count++
		}
	}
	return count
}

// overdueContractsLocked lists the contracts with an obligation overdue
// at head, sorted, for alert attribution.
func (t *Tower) overdueContractsLocked(head uint64) []string {
	var addrs []string
	for _, cs := range t.tracked {
		if cs.owes && head > cs.due {
			addrs = append(addrs, cs.Addr.Hex())
		}
	}
	sort.Strings(addrs)
	return addrs
}

// signalsLocked computes the rule-engine inputs for one folded block.
func (t *Tower) signalsLocked(lag uint64, overdue int) map[string]float64 {
	return map[string]float64{
		"overdue":          float64(overdue),
		"tracked":          float64(len(t.contracts)),
		"fold_lag":         float64(lag),
		"alerts_firing":    float64(t.rules.firing()),
		"drafted":          float64(t.states[StateDrafted]),
		"signed":           float64(t.states[StateSigned]),
		"active":           float64(t.states[StateActive]),
		"modified_pending": float64(t.states[StateModifiedPending]),
		"terminated":       float64(t.states[StateTerminated]),
	}
}

// updateGaugesLocked refreshes the metric surface after a fold pass.
func (t *Tower) updateGaugesLocked(head uint64) {
	for _, s := range allStates {
		mContracts.With(s).Set(int64(t.states[s]))
	}
	mOverdue.Set(int64(t.overdueLocked(t.folded)))
	mAlertsFiring.Set(int64(t.rules.firing()))
	if head >= t.folded {
		mFoldLag.Set(int64(head - t.folded))
	}
}

// --- read surface ----------------------------------------------------------

// Status is the tower's summary, served by legal_watchStatus and the
// legalctl watch/top views. Summary fills every field but Contracts.
type Status struct {
	Head         uint64           `json:"head"`
	Folded       uint64           `json:"folded"`
	LagBlocks    uint64           `json:"lagBlocks"`
	Tracked      int              `json:"tracked"`
	States       map[string]int   `json:"states"`
	Overdue      int              `json:"overdue"`
	AlertsFiring int              `json:"alertsFiring"`
	AlertsTotal  uint64           `json:"alertsTotal"`
	Events       uint64           `json:"events"`
	SkippedBlks  uint64           `json:"skippedBlocks,omitempty"`
	Rules        []RuleStatus     `json:"rules,omitempty"`
	Contracts    []ContractStatus `json:"contracts,omitempty"`
}

// RuleStatus is one rule plus its live engine counters.
type RuleStatus struct {
	Rule
	Firing      bool   `json:"firing"`
	Consecutive uint64 `json:"consecutive"`
}

// ContractStatus is one contract's lifecycle summary.
type ContractStatus struct {
	Address     string       `json:"address"`
	Template    string       `json:"template"`
	State       string       `json:"state"`
	MonthsPaid  uint64       `json:"monthsPaid"`
	Months      uint64       `json:"months"`
	RentWei     string       `json:"rentWei,omitempty"`
	DepositWei  string       `json:"depositWei,omitempty"`
	Overdue     bool         `json:"overdue"`
	Obligations []Obligation `json:"obligations,omitempty"`
}

// Summary reports the tower's counters: Status without Contracts. Lag
// is measured against the source's newest head, so a stalled tower
// shows a growing number even between folds.
func (t *Tower) Summary() Status {
	head := t.src.View().BlockNumber()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.summaryLocked(head)
}

// Status is Summary plus every tracked contract, sorted by address (the
// hex form sorts as the bytes do).
func (t *Tower) Status() Status {
	head := t.src.View().BlockNumber()
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.summaryLocked(head)
	if len(t.tracked) == 0 {
		return st
	}
	type keyed struct {
		hex  string
		addr ethtypes.Address
	}
	keys := make([]keyed, len(t.tracked))
	for i, cs := range t.tracked {
		keys[i] = keyed{cs.Addr.Hex(), cs.Addr}
	}
	slices.SortFunc(keys, func(a, b keyed) int { return strings.Compare(a.hex, b.hex) })
	st.Contracts = make([]ContractStatus, len(keys))
	for i, k := range keys {
		st.Contracts[i], _ = t.contractStatusLocked(k.addr, k.hex)
	}
	return st
}

func (t *Tower) summaryLocked(head uint64) Status {
	st := Status{
		Head:         head,
		Folded:       t.folded,
		Tracked:      len(t.contracts),
		States:       make(map[string]int, len(allStates)),
		Overdue:      t.overdueLocked(t.folded),
		AlertsFiring: t.rules.firing(),
		AlertsTotal:  t.fired,
		Events:       t.seq,
		SkippedBlks:  t.skipped,
	}
	if head > t.folded {
		st.LagBlocks = head - t.folded
		mFoldLag.Set(int64(st.LagBlocks))
	}
	for _, s := range allStates {
		st.States[s] = t.states[s]
	}
	for i, r := range t.rules.rules {
		rs := t.rules.state[i]
		st.Rules = append(st.Rules, RuleStatus{Rule: r, Firing: rs.Firing, Consecutive: rs.Consecutive})
	}
	return st
}

// contractStatusLocked builds addr's entry; hex is addr.Hex().
func (t *Tower) contractStatusLocked(addr ethtypes.Address, hex string) (ContractStatus, bool) {
	cs := t.contracts[addr]
	if cs == nil {
		return ContractStatus{}, false
	}
	c := ContractStatus{
		Address:     hex,
		Template:    cs.Template,
		State:       cs.State,
		MonthsPaid:  cs.MonthsPaid,
		Months:      cs.Months,
		RentWei:     cs.RentWei,
		DepositWei:  cs.DepositWei,
		Obligations: t.obligationsOf(cs, hex, t.folded),
	}
	for _, o := range c.Obligations {
		c.Overdue = c.Overdue || o.Overdue
	}
	return c, true
}

// Timeline returns the buffered events involving addr, oldest first:
// its lifecycle events plus every alert that implicated it.
func (t *Tower) Timeline(addr ethtypes.Address) []Event {
	hex := addr.Hex()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.timelineLocked(hex)
}

// ContractTimeline is Timeline and addr's entry of Status().Contracts
// read under one lock, so the events and the entry describe the same
// folded height; false if the tower does not track addr.
func (t *Tower) ContractTimeline(addr ethtypes.Address) ([]Event, ContractStatus, bool) {
	hex := addr.Hex()
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.contractStatusLocked(addr, hex)
	return t.timelineLocked(hex), c, ok
}

func (t *Tower) timelineLocked(hex string) []Event {
	var out []Event
	for _, run := range t.bufferedLocked() {
		for i := range run {
			ev := &run[i]
			if ev.Contract == hex || slices.Contains(ev.Contracts, hex) {
				out = append(out, *ev)
			}
		}
	}
	return out
}

// Alerts returns the bounded alert history, oldest first.
func (t *Tower) Alerts() []Alert {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Alert(nil), t.alerts...)
}

// AlertsSince returns alerts with Seq > seq, oldest first — the SSE
// stream's incremental read.
func (t *Tower) AlertsSince(seq uint64) []Alert {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := sort.Search(len(t.alerts), func(i int) bool { return t.alerts[i].Seq > seq })
	if i == len(t.alerts) {
		return nil
	}
	return append([]Alert(nil), t.alerts[i:]...)
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
