package watch

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/web3"
)

// TestReplayConvergence is the restart property: for fuzzed lifecycle
// schedules, a tower that is stopped mid-stream and reopened over its
// event log must converge to the same per-contract states, the same
// event sequence and the same durable log as a tower that watched the
// whole run uninterrupted.
func TestReplayConvergence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run("", func(t *testing.T) { replayRun(t, seed) })
	}
}

// fuzzContract mirrors what the schedule has done to one deployment so
// the generator only picks valid next moves.
type fuzzContract struct {
	bound      *web3.BoundContract
	confirmed  bool
	terminated bool
	linked     bool
	paid       uint64
	months     uint64
}

func replayRun(t *testing.T, seed int64) {
	bc, client, accs := rig(t, 4)
	landlord, tenant, other := accs[0], accs[1], accs[2]
	rng := rand.New(rand.NewSource(seed))

	rules, err := ParseRules("missed: overdue > 0 for 3 blocks")
	if err != nil {
		t.Fatal(err)
	}
	cfg := func(dir string) Config {
		return Config{Dir: dir, RentPeriod: 2, ModifyGrace: 2, Rules: rules}
	}
	dirA, dirB := t.TempDir(), t.TempDir()

	// Tower B watches live and is killed mid-stream.
	b1, err := New(bc, cfg(dirB))
	if err != nil {
		t.Fatal(err)
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
			live = append(live, &fuzzContract{bound: deployRental(t, client, landlord, months), months: months})
		case roll < 4:
			if _, err := client.Transfer(web3.TxOpts{From: other.Address, Value: ethtypes.Ether(1)}, landlord.Address); err != nil {
				t.Fatal(err)
			}
		case !c.confirmed && !c.terminated:
			if _, err := c.bound.Transact(web3.TxOpts{From: tenant.Address, Value: ethtypes.Ether(2)}, "confirmAgreement"); err != nil {
				t.Fatal(err)
			}
			c.confirmed = true
		case c.terminated:
			// Nothing left for this contract; burn the turn on a transfer.
			if _, err := client.Transfer(web3.TxOpts{From: other.Address, Value: ethtypes.Ether(1)}, landlord.Address); err != nil {
				t.Fatal(err)
			}
		case roll < 7 && c.paid < c.months:
			if _, err := c.bound.Transact(web3.TxOpts{From: tenant.Address, Value: ethtypes.Ether(1)}, "payRent"); err != nil {
				t.Fatal(err)
			}
			c.paid++
		case roll < 9 && !c.linked:
			succ := deployRental(t, client, landlord, c.months)
			live = append(live, &fuzzContract{bound: succ, months: c.months})
			if _, err := c.bound.Transact(web3.TxOpts{From: landlord.Address}, "setNext", succ.Address); err != nil {
				t.Fatal(err)
			}
			if _, err := succ.Transact(web3.TxOpts{From: landlord.Address}, "setPrev", c.bound.Address); err != nil {
				t.Fatal(err)
			}
			c.linked = true
		default:
			if _, err := c.bound.Transact(web3.TxOpts{From: tenant.Address}, "terminateContract"); err != nil {
				t.Fatal(err)
			}
			c.terminated = true
		}
	}

	total := 30 + rng.Intn(20)
	cut := 5 + rng.Intn(total-10) // restart somewhere strictly mid-stream
	for i := 0; i < cut; i++ {
		step()
	}
	b1.Sync() // fold everything sealed so far, then die
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}

	for i := cut; i < total; i++ {
		step()
	}

	// B reopens over its log and catches up; A watches the whole chain
	// in one uninterrupted pass.
	b2, err := New(bc, cfg(dirB))
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	b2.Sync()
	a, err := New(bc, cfg(dirA))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Sync()

	stA, stB := a.Status(), b2.Status()
	if !reflect.DeepEqual(stA, stB) {
		t.Fatalf("seed %d: status diverged\nuninterrupted: %+v\nrestarted:     %+v", seed, stA, stB)
	}
	evA, evB := a.Events(0), b2.Events(0)
	if !reflect.DeepEqual(evA, evB) {
		if len(evA) != len(evB) {
			t.Fatalf("seed %d: %d events uninterrupted vs %d restarted", seed, len(evA), len(evB))
		}
		for i := range evA {
			if !reflect.DeepEqual(evA[i], evB[i]) {
				t.Fatalf("seed %d: event %d diverged\nuninterrupted: %+v\nrestarted:     %+v", seed, i, evA[i], evB[i])
			}
		}
	}
	// The durable logs must be byte-identical: same records, same seqs,
	// same rule-state snapshots in every anchor.
	rawA, rawB := logBytes(t, dirA), logBytes(t, dirB)
	if !reflect.DeepEqual(rawA, rawB) {
		t.Fatalf("seed %d: durable logs diverged (%d vs %d bytes)", seed, len(rawA), len(rawB))
	}
	// And both agree with the chain: every tracked contract's on-chain
	// state matches the folded machine.
	for _, cs := range stA.Contracts {
		addr, _ := parseAddr(cs.Address)
		bound := client.Bind(addr, loadRentalABI())
		onchain, err := bound.CallUint(accs[3].Address, "state")
		if err != nil {
			t.Fatal(err)
		}
		switch cs.State {
		case StateDrafted:
			if onchain.Uint64() != 0 {
				t.Fatalf("%s folded drafted, chain says %d", cs.Address, onchain.Uint64())
			}
		case StateSigned, StateActive, StateModifiedPending:
			if onchain.Uint64() != 1 {
				t.Fatalf("%s folded %s, chain says %d", cs.Address, cs.State, onchain.Uint64())
			}
		case StateTerminated:
			if onchain.Uint64() != 2 {
				t.Fatalf("%s folded terminated, chain says %d", cs.Address, onchain.Uint64())
			}
		}
	}
}

// logBytes returns the names and contents of a tower's log segments.
func logBytes(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "events-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no event log in %s: %v", dir, err)
	}
	var out []byte
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, filepath.Base(seg)...), data...)
	}
	return out
}
