package watch

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/wallet"
	"legalchain/internal/web3"
)

// openDurable opens the durable chain in dir (creating it on first use)
// and a client over it. The caller closes the chain.
func openDurable(t *testing.T, dir string, accs []wallet.Account) (*chain.Blockchain, *web3.Client) {
	t.Helper()
	bc, err := chain.Open(rigGenesis(accs), chain.WithPersistence(chain.PersistConfig{DataDir: dir, NoSync: true}))
	if err != nil {
		t.Fatal(err)
	}
	return bc, clientFor(t, bc, accs)
}

// reopened is a Source over whichever chain is open now, so one tower
// can watch across a chain restart.
type reopened struct{ bc *chain.Blockchain }

func (s *reopened) View() *chain.HeadView                      { return s.bc.View() }
func (s *reopened) SubscribeHeads(buf int) *chain.Subscription { return s.bc.SubscribeHeads(buf) }

// TestReplayConvergence is the restart property: for fuzzed lifecycle
// schedules over a durable chain that is closed and reopened
// mid-stream, a tower rebuilt after the reopen must converge to the
// same per-contract states, the same event sequence and the same alerts
// as a tower that watched the whole run uninterrupted — with a
// fold_lag rule that a refold counted as lag would fire.
func TestReplayConvergence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run("", func(t *testing.T) { replayRun(t, seed) })
	}
}

// fuzzContract mirrors what the schedule has done to one deployment so
// the generator only picks valid next moves.
type fuzzContract struct {
	addr       ethtypes.Address
	confirmed  bool
	terminated bool
	linked     bool
	paid       uint64
	months     uint64
}

func replayRun(t *testing.T, seed int64) {
	accs := wallet.DevAccounts("watch test", 4)
	landlord, tenant, other := accs[0], accs[1], accs[2]
	dir := t.TempDir()
	bc, client := openDurable(t, dir, accs)
	defer func() { bc.Close() }()
	src := &reopened{bc}
	rng := rand.New(rand.NewSource(seed))

	rules, err := ParseRules("missed: overdue > 0 for 3 blocks\nlagging: fold_lag > 16")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{RentPeriod: 2, Rules: rules}

	// Tower A watches the whole run, across the chain restart.
	a, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	rental := func(c *fuzzContract) *web3.BoundContract { return client.Bind(c.addr, loadRentalABI()) }
	transact := func(b *web3.BoundContract, opts web3.TxOpts, method string, args ...interface{}) {
		t.Helper()
		if _, err := b.Transact(opts, method, args...); err != nil {
			t.Fatal(err)
		}
	}
	transfer := func() {
		t.Helper()
		if _, err := client.Transfer(web3.TxOpts{From: other.Address, Value: ethtypes.Ether(1)}, landlord.Address); err != nil {
			t.Fatal(err)
		}
	}
	var live []*fuzzContract
	step := func() {
		// Pick a valid move: deploy, or act on a random live contract,
		// or an unrelated transfer (advances blocks — lets rent go
		// overdue and alert rules count).
		roll := rng.Intn(10)
		var c *fuzzContract
		if len(live) > 0 {
			c = live[rng.Intn(len(live))]
		}
		switch {
		case roll < 2 || c == nil:
			months := uint64(2 + rng.Intn(4))
			live = append(live, &fuzzContract{addr: deployRental(t, client, landlord, months).Address, months: months})
		case roll < 4:
			transfer()
		case !c.confirmed && !c.terminated:
			transact(rental(c), web3.TxOpts{From: tenant.Address, Value: ethtypes.Ether(2)}, "confirmAgreement")
			c.confirmed = true
		case c.terminated:
			// Nothing left for this contract; burn the turn on a transfer.
			transfer()
		case roll < 7 && c.paid < c.months:
			transact(rental(c), web3.TxOpts{From: tenant.Address, Value: ethtypes.Ether(1)}, "payRent")
			c.paid++
		case roll < 9 && !c.linked:
			succ := &fuzzContract{addr: deployRental(t, client, landlord, c.months).Address, months: c.months}
			live = append(live, succ)
			transact(rental(c), web3.TxOpts{From: landlord.Address}, "setNext", succ.addr)
			transact(rental(succ), web3.TxOpts{From: landlord.Address}, "setPrev", c.addr)
			c.linked = true
		default:
			transact(rental(c), web3.TxOpts{From: tenant.Address}, "terminateContract")
			c.terminated = true
		}
	}

	// Every step seals at least one block, so the cut lies past block
	// 17: a refold counting history as lag would fire "lagging".
	total := 30 + rng.Intn(20)
	cut := 18 + rng.Intn(total-22)
	for i := 0; i < cut; i++ {
		step()
		a.Sync()
	}

	// The chain restarts; tower B is built over the reopened chain the
	// way a node builds it.
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}
	bc, client = openDurable(t, dir, accs)
	src.bc = bc
	b, err := New(bc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Sync()
	for i := cut; i < total; i++ {
		step()
		a.Sync()
		b.Sync()
	}

	stA, stB := a.Status(), b.Status()
	if !reflect.DeepEqual(stA, stB) {
		t.Fatalf("seed %d: status diverged\nuninterrupted: %+v\nrebuilt:       %+v", seed, stA, stB)
	}
	evA, evB := bufferedEvents(a, 0), bufferedEvents(b, 0)
	if len(evA) != len(evB) {
		t.Fatalf("seed %d: %d events uninterrupted vs %d rebuilt", seed, len(evA), len(evB))
	}
	for i := range evA {
		if !reflect.DeepEqual(evA[i], evB[i]) {
			t.Fatalf("seed %d: event %d diverged\nuninterrupted: %+v\nrebuilt:       %+v", seed, i, evA[i], evB[i])
		}
	}
	if alA, alB := a.Alerts(), b.Alerts(); !reflect.DeepEqual(alA, alB) {
		t.Fatalf("seed %d: alerts diverged\nuninterrupted: %+v\nrebuilt:       %+v", seed, alA, alB)
	}
	// The kept per-state count agrees with a recount of the contracts.
	recount := map[string]int{}
	for _, s := range allStates {
		recount[s] = 0
	}
	for _, cs := range stB.Contracts {
		recount[cs.State]++
	}
	if !reflect.DeepEqual(stB.States, recount) {
		t.Fatalf("seed %d: state count %v, recount %v", seed, stB.States, recount)
	}
	// And both agree with the chain: every tracked contract's on-chain
	// state matches the folded machine.
	for _, cs := range stA.Contracts {
		addr, _ := ethtypes.ParseAddress(cs.Address)
		onchain, err := client.Bind(addr, loadRentalABI()).CallUint(accs[3].Address, "state")
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]uint64{StateDrafted: 0, StateSigned: 1, StateActive: 1, StateModifiedPending: 1, StateTerminated: 2}[cs.State]
		if onchain.Uint64() != want {
			t.Fatalf("%s folded %s, chain says %d", cs.Address, cs.State, onchain.Uint64())
		}
	}
}

// TestDamagedChainTailRefolds: a durable chain that loses its newest
// blocks to a damaged log tail reopens shorter. The tower rebuilt over
// it must agree with a fresh fold of what survived, not with what it
// saw before the crash, and must fold the blocks sealed again at the
// lost heights.
func TestDamagedChainTailRefolds(t *testing.T) {
	accs := wallet.DevAccounts("watch test", 2)
	landlord, tenant := accs[0], accs[1]
	dir := t.TempDir()
	bc, client := openDurable(t, dir, accs)
	tower, err := New(bc, Config{})
	if err != nil {
		t.Fatal(err)
	}

	rental := deployRental(t, client, landlord, 12) // block 1
	if _, err := rental.Transact(web3.TxOpts{From: tenant.Address, Value: ethtypes.Ether(2)}, "confirmAgreement"); err != nil {
		t.Fatal(err)
	}
	const confirmBlock = 2
	segs, _ := filepath.Glob(filepath.Join(dir, "blocks-*.seg"))
	if len(segs) == 0 {
		t.Fatal("no block log")
	}
	seg := segs[len(segs)-1]
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	intact := fi.Size() // the log through the confirm block
	if _, err := rental.Transact(web3.TxOpts{From: tenant.Address, Value: ethtypes.Ether(1)}, "payRent"); err != nil {
		t.Fatal(err)
	}
	if _, err := rental.Transact(web3.TxOpts{From: tenant.Address}, "terminateContract"); err != nil {
		t.Fatal(err)
	}
	tower.Sync()
	if st := tower.Status(); st.Folded != 4 || st.States[StateTerminated] != 1 {
		t.Fatalf("before the crash: %+v", st)
	}
	tower.Close()
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}

	// Damage the tail: the pay and terminate blocks are lost, the first
	// torn mid-frame, along with the snapshots that describe them.
	if err := os.Truncate(seg, intact+3); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "state-*.snap"))
	for _, p := range snaps {
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "state-"), ".snap"), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if n > confirmBlock {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
		}
	}

	bc, client = openDurable(t, dir, accs)
	defer bc.Close()
	if head := bc.BlockNumber(); head != confirmBlock {
		t.Fatalf("reopened head #%d, want the confirm block #%d", head, confirmBlock)
	}
	tower, err = New(bc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tower.Close()
	tower.Sync()
	agrees := func(want string) {
		t.Helper()
		fresh, err := New(bc, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.Close()
		fresh.Sync()
		st, fst := tower.Status(), fresh.Status()
		if !reflect.DeepEqual(st, fst) {
			t.Fatalf("reopened tower %+v\nfresh fold     %+v", st, fst)
		}
		if st.Folded != bc.BlockNumber() || len(st.Contracts) != 1 || st.Contracts[0].State != want {
			t.Fatalf("reopened tower at #%d folded %d: %+v, want one %s rental", bc.BlockNumber(), st.Folded, st.Contracts, want)
		}
	}
	agrees(StateSigned)

	// A payment sealed at the lost height is folded.
	if _, err := client.Bind(rental.Address, loadRentalABI()).Transact(web3.TxOpts{From: tenant.Address, Value: ethtypes.Ether(1)}, "payRent"); err != nil {
		t.Fatal(err)
	}
	if head := bc.BlockNumber(); head != confirmBlock+1 {
		t.Fatalf("payment sealed at #%d, want #%d", head, confirmBlock+1)
	}
	tower.Sync()
	agrees(StateActive)
	var types []string
	for _, ev := range tower.Timeline(rental.Address) {
		types = append(types, fmt.Sprintf("%s@%d", ev.Type, ev.Block))
	}
	if got := strings.Join(types, " "); got != "created@1 signed@2 payment@3" {
		t.Fatalf("timeline %s", got)
	}
}
