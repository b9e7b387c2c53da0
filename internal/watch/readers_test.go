package watch

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"legalchain/internal/chain"
	"legalchain/internal/contracts"
	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
	"legalchain/internal/web3"
)

// readersGolden holds Status() and every timeline document at each
// checkpoint of readersScript, as the tower wrote them when the timeline
// was still cut out of the full Status(). The narrow reads must not
// change a byte of it.
var readersGolden = filepath.Join("testdata", "readers.golden.json")

// readersScript runs the Fig. 4 lifecycle with a modification, a
// rejection and a termination, calling check after each phase with the
// tower folded to the head and the addresses seen so far (one of them,
// a DataStorage, untracked).
func readersScript(t *testing.T, check func(phase string, tw *Tower, addrs []ethtypes.Address)) {
	bc, client, accs := rig(t, 3)
	landlord, tenant, other := accs[0], accs[1], accs[2]
	rules, err := ParseRules("missed: overdue > 0 for 2 blocks")
	if err != nil {
		t.Fatal(err)
	}
	tw, err := New(bc, Config{RentPeriod: 2, Rules: rules})
	if err != nil {
		t.Fatal(err)
	}
	defer tw.Close()

	var addrs []ethtypes.Address
	transact := func(c *web3.BoundContract, from ethtypes.Address, value uint256.Int, method string, args ...interface{}) {
		t.Helper()
		if _, err := c.Transact(web3.TxOpts{From: from, Value: value}, method, args...); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
	}
	deployV2 := func() *web3.BoundContract {
		t.Helper()
		art := contracts.MustArtifact("RentalAgreementV2")
		c, _, err := client.Deploy(web3.TxOpts{From: landlord.Address}, art.ABI, art.Bytecode,
			ethtypes.Ether(1), ethtypes.Ether(2), uint64(12), "10115-Berlin-42",
			ethtypes.Ether(0), ethtypes.Ether(0), ethtypes.Ether(1))
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, c.Address)
		return c
	}
	phase := func(name string) {
		t.Helper()
		tw.Sync()
		check(name, tw, addrs)
	}
	one, two := ethtypes.Ether(1), ethtypes.Ether(2)
	transfer := func() {
		t.Helper()
		if _, err := client.Transfer(web3.TxOpts{From: other.Address, Value: one}, landlord.Address); err != nil {
			t.Fatal(err)
		}
	}

	art := contracts.MustArtifact("DataStorage")
	store, _, err := client.Deploy(web3.TxOpts{From: landlord.Address}, art.ABI, art.Bytecode)
	if err != nil {
		t.Fatal(err)
	}
	addrs = append(addrs, store.Address)

	a := deployRental(t, client, landlord, 12)
	addrs = append(addrs, a.Address)
	transact(a, tenant.Address, two, "confirmAgreement")
	transact(a, tenant.Address, one, "payRent")
	phase("lifecycle")
	// Two empty blocks: a's rent is due at the folded head, not yet overdue.
	transfer()
	transfer()
	phase("rent-due")

	b := deployV2()
	transact(a, landlord.Address, uint256.Zero, "setNext", b.Address)
	transact(b, landlord.Address, uint256.Zero, "setPrev", a.Address)
	phase("modify-pending")
	transact(a, tenant.Address, uint256.Zero, "terminateContract")
	transact(b, tenant.Address, two, "confirmAgreement")
	transact(b, tenant.Address, one, "payRent")
	phase("modified")

	// The tenant falls behind on b: the rule fires and implicates it.
	for i := 0; i < 5; i++ {
		transfer()
	}
	phase("overdue")

	c := deployV2()
	transact(b, landlord.Address, uint256.Zero, "setNext", c.Address)
	transact(c, landlord.Address, uint256.Zero, "setPrev", b.Address)
	transact(b, tenant.Address, uint256.Zero, "terminateContract")
	phase("rejected")

	d := deployRental(t, client, landlord, 1)
	addrs = append(addrs, d.Address)
	transact(d, tenant.Address, two, "confirmAgreement")
	transact(d, tenant.Address, one, "payRent")
	phase("term-served")
	transact(d, tenant.Address, uint256.Zero, "terminateContract")
	phase("terminated")
}

// timelineDoc is the body of GET /api/v1/contracts/{addr}/timeline
// without its "head".
func timelineDoc(tw *Tower, addr ethtypes.Address) map[string]interface{} {
	events, c, ok := tw.ContractTimeline(addr)
	doc := map[string]interface{}{"address": addr.Hex(), "events": events, "count": len(events)}
	if ok {
		doc["contract"] = &c
	}
	return doc
}

// TestNarrowReadsMatchStatus is the differential test of the tower's
// reads: ContractTimeline's events and entry against Timeline and
// Status at every phase of readersScript, and all of them against the
// golden JSON.
func TestNarrowReadsMatchStatus(t *testing.T) {
	type checkpoint struct {
		Phase     string                   `json:"phase"`
		Status    Status                   `json:"status"`
		Timelines []map[string]interface{} `json:"timelines"`
	}
	var got []checkpoint
	readersScript(t, func(phase string, tw *Tower, addrs []ethtypes.Address) {
		st := tw.Status()
		byAddr := make(map[string]ContractStatus, len(st.Contracts))
		for _, want := range st.Contracts {
			_, c, ok := tw.ContractTimeline(ethtypes.HexToAddress(want.Address))
			if !ok || !reflect.DeepEqual(c, want) {
				t.Fatalf("%s: ContractTimeline(%s) entry %+v, %v; Status has %+v", phase, want.Address, c, ok, want)
			}
			byAddr[want.Address] = want
		}
		sum := st
		sum.Contracts = nil
		if got := tw.Summary(); !reflect.DeepEqual(got, sum) {
			t.Fatalf("%s: Summary %+v, Status without contracts %+v", phase, got, sum)
		}
		overdue := 0
		for _, c := range st.Contracts {
			if c.Overdue {
				overdue++
			}
		}
		if overdue != st.Overdue {
			t.Fatalf("%s: %d overdue entries, Overdue %d", phase, overdue, st.Overdue)
		}
		if phase == "rent-due" {
			if c := st.Contracts[0]; len(c.Obligations) != 1 || c.Obligations[0].DueBlock != st.Folded || c.Overdue {
				t.Fatalf("rent-due: want an obligation due at the folded head %d, got %+v", st.Folded, c)
			}
		}
		cp := checkpoint{Phase: phase, Status: st}
		for _, addr := range addrs {
			events, c, ok := tw.ContractTimeline(addr)
			if !reflect.DeepEqual(events, tw.Timeline(addr)) {
				t.Fatalf("%s: ContractTimeline(%s) events differ from Timeline", phase, addr)
			}
			if want, tracked := byAddr[addr.Hex()]; ok != tracked || !reflect.DeepEqual(c, want) {
				t.Fatalf("%s: ContractTimeline(%s) entry %+v, %v; Status has %+v, %v", phase, addr, c, ok, want, tracked)
			}
			cp.Timelines = append(cp.Timelines, timelineDoc(tw, addr))
		}
		got = append(got, cp)
	})

	untracked := got[0].Timelines[0]
	if _, ok := untracked["contract"]; ok || untracked["count"] != 0 {
		t.Fatalf("untracked address: %+v", untracked)
	}
	if last := got[len(got)-1].Status; len(last.Contracts) != 4 || last.AlertsTotal != 1 {
		t.Fatalf("script did not track 4 contracts and fire one alert: %+v", got[len(got)-1].Status)
	}

	buf, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(readersGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(buf), bytes.TrimSpace(want)) {
		t.Fatalf("reads differ from %s:\n%s", readersGolden, buf)
	}
}

// syntheticTower returns a tower over an empty chain tracking n
// contracts at random addresses, each created, signed and paid once
// through the tower's own write path, folded to block 3n+2.
func syntheticTower(tb testing.TB, n int, cfg Config) (*Tower, []ethtypes.Address) {
	tb.Helper()
	bc := chain.New(chain.DefaultGenesis())
	tb.Cleanup(func() { bc.Close() })
	tw, err := New(bc, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(n)))
	addrs := make([]ethtypes.Address, n)
	tw.mu.Lock()
	defer tw.mu.Unlock()
	for i := range addrs {
		rng.Read(addrs[i][:])
		hex := addrs[i].Hex()
		block := uint64(3*i + 1)
		tw.recordLocked(&Event{Type: "created", Block: block, Contract: hex, Template: "BaseRental",
			RentWei: "1000", DepositWei: "2000", Months: 12})
		tw.recordLocked(&Event{Type: "signed", Block: block + 1, Contract: hex})
		tw.recordLocked(&Event{Type: "payment", Block: block + 2, Contract: hex, Month: 1, AmountWei: "1000"})
	}
	tw.folded = uint64(3*n + 2)
	return tw, addrs
}

// bufferedEvents returns the newest n buffered events (all contracts,
// alerts included), oldest first; n <= 0 returns everything buffered.
func bufferedEvents(t *Tower, n int) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	runs := t.bufferedLocked()
	all := append(append([]Event(nil), runs[0]...), runs[1]...)
	if n > 0 && n < len(all) {
		all = all[len(all)-n:]
	}
	return all
}

// TestEventRingWraparound fills a buffer of 8 slots with three times as
// many events: after every event, the buffer, Timeline and AlertsSince
// return the newest events in Seq order.
func TestEventRingWraparound(t *testing.T) {
	tw, addrs := syntheticTower(t, 2, Config{MemEvents: 8})
	a := addrs[0].Hex()
	seqs := func(evs []Event) []uint64 {
		var out []uint64
		for _, ev := range evs {
			out = append(out, ev.Seq)
		}
		return out
	}
	span := func(from, to uint64) []uint64 {
		var out []uint64
		for s := from; s <= to; s++ {
			out = append(out, s)
		}
		return out
	}
	var alerts []uint64
	for tw.seq < 24 {
		next := tw.seq + 1
		ev := &Event{Type: "payment", Block: next, Contract: addrs[next%2].Hex(), Month: next}
		if next%5 == 0 {
			ev = &Event{Type: "alert", Block: next, Rule: "r", Contracts: []string{a}}
			alerts = append(alerts, next)
		}
		tw.mu.Lock()
		tw.recordLocked(ev)
		tw.mu.Unlock()

		oldest := uint64(1)
		if next > 8 {
			oldest = next - 7
		}
		if got := seqs(bufferedEvents(tw, 0)); !reflect.DeepEqual(got, span(oldest, next)) {
			t.Fatalf("after seq %d: buffered = %v", next, got)
		}
		if got := seqs(bufferedEvents(tw, 3)); !reflect.DeepEqual(got, span(next-2, next)) {
			t.Fatalf("after seq %d: newest 3 buffered = %v", next, got)
		}
		var want []uint64
		for _, ev := range bufferedEvents(tw, 0) {
			if ev.Contract == a || ev.Type == "alert" {
				want = append(want, ev.Seq)
			}
		}
		if got := seqs(tw.Timeline(addrs[0])); !reflect.DeepEqual(got, want) {
			t.Fatalf("after seq %d: Timeline = %v, want %v", next, got, want)
		}
	}
	if got := bufferedEvents(tw, 100); len(got) != 8 || got[7].Seq != 24 {
		t.Fatalf("newest 100 buffered = %v", seqs(got))
	}
	var got []uint64
	for _, al := range tw.AlertsSince(0) {
		got = append(got, al.Seq)
	}
	if !reflect.DeepEqual(got, alerts) {
		t.Fatalf("AlertsSince(0) = %v, want %v", got, alerts)
	}
	if got := tw.AlertsSince(alerts[1]); len(got) != len(alerts)-2 || got[0].Seq != alerts[2] {
		t.Fatalf("AlertsSince(%d) = %+v", alerts[1], got)
	}
}

// TestStatusAllocsLinear bounds Status() allocations per tracked
// contract: building the list allocates a fixed few objects for each
// contract, and sorting it allocates none per comparison.
func TestStatusAllocsLinear(t *testing.T) {
	allocs := func(n int) float64 {
		tw, _ := syntheticTower(t, n, Config{})
		return testing.AllocsPerRun(5, func() { tw.Status() })
	}
	small, large := allocs(16), allocs(1024)
	t.Logf("Status allocations: %.0f at 16 contracts, %.0f at 1024", small, large)
	if per := (large - small) / (1024 - 16); per > 8 {
		t.Fatalf("Status allocates %.1f objects per tracked contract (%.0f at 16, %.0f at 1024), want <= 8", per, small, large)
	}
}
