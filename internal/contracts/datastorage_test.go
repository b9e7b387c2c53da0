package contracts

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/evm"
	"legalchain/internal/state"
	"legalchain/internal/uint256"
)

// dsEVM is DataStorage deployed on a bare EVM. Calls through it change
// no nonce and no balance, so two instances with the same history of
// successful writes have the same state root exactly when DataStorage's
// storage is the same.
type dsEVM struct {
	t    *testing.T
	e    *evm.EVM
	st   *state.StateDB
	addr ethtypes.Address
}

var (
	dsOwner    = ethtypes.HexToAddress("0xd000000000000000000000000000000000000001")
	dsStranger = ethtypes.HexToAddress("0xd000000000000000000000000000000000000002")
)

func newDSEVM(t *testing.T) *dsEVM {
	t.Helper()
	st := state.New()
	e := evm.New(evm.Context{ChainID: 1337, BlockNumber: 1, Time: 1_700_000_000, GasLimit: 30_000_000, Origin: dsOwner}, st)
	_, addr, _, err := e.Create(dsOwner, MustArtifact("DataStorage").Bytecode, 10_000_000, uint256.Zero)
	if err != nil {
		t.Fatal(err)
	}
	return &dsEVM{t: t, e: e, st: st, addr: addr}
}

// call sends one message and returns the logs it added.
func (d *dsEVM) call(from ethtypes.Address, method string, args ...interface{}) ([]*ethtypes.Log, error) {
	d.t.Helper()
	input, err := MustArtifact("DataStorage").ABI.Pack(method, args...)
	if err != nil {
		d.t.Fatal(err)
	}
	before := len(d.st.Logs())
	_, _, err = d.e.Call(from, d.addr, input, 5_000_000, uint256.Zero)
	return d.st.Logs()[before:], err
}

// get runs one DataStorage getter and returns its one output.
func (d *dsEVM) get(method string, args ...interface{}) interface{} {
	d.t.Helper()
	a := MustArtifact("DataStorage").ABI
	input, err := a.Pack(method, args...)
	if err != nil {
		d.t.Fatal(err)
	}
	ret, _, err := d.e.Call(dsOwner, d.addr, input, 5_000_000, uint256.Zero)
	if err != nil {
		d.t.Fatalf("%s: %v", method, err)
	}
	out, err := a.Unpack(method, ret)
	if err != nil {
		d.t.Fatal(err)
	}
	return out[0]
}

// StorageAt serves the slot reader from the same state the getters run on.
func (d *dsEVM) StorageAt(addr ethtypes.Address, slot ethtypes.Hash) (ethtypes.Hash, error) {
	return d.st.GetState(addr, slot).Bytes32(), nil
}

// keys enumerates ns through keyCount/keyAt, each with its value.
func (d *dsEVM) keys(ns ethtypes.Address) []string {
	d.t.Helper()
	n := d.get("keyCount", ns).(uint256.Int).Uint64()
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		k := d.get("keyAt", ns, i).(string)
		out = append(out, k+"="+d.get("getValue", ns, k).(string))
	}
	return out
}

// sameLogs compares what a log says, not where it was mined.
func sameLogs(a, b []*ethtypes.Log) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d logs vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Address != b[i].Address || !bytes.Equal(a[i].Data, b[i].Data) || !slices.Equal(a[i].Topics, b[i].Topics) {
			return fmt.Errorf("log %d differs", i)
		}
	}
	return nil
}

func toArgs(ss []string) []interface{} {
	out := make([]interface{}, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}

// TestSetValuesMatchesSetValue: setValues over a batch leaves the
// storage, the key enumeration and the valueSet logs that setValue
// leaves over the same pairs one at a time. Batches are random, drawn
// from a small key alphabet so that keys repeat within a batch and
// across batches, with values on both sides of the 32-byte short/long
// storage form; the fixed batches cover a duplicate and an empty batch.
func TestSetValuesMatchesSetValue(t *testing.T) {
	one, each := newDSEVM(t), newDSEVM(t)
	namespaces := []ethtypes.Address{
		ethtypes.HexToAddress("0x00000000000000000000000000000000000000a1"),
		ethtypes.HexToAddress("0x00000000000000000000000000000000000000a2"),
	}
	type batch struct {
		keys, values []string
	}
	batches := []batch{
		{[]string{"rent", "rent"}, []string{"1500", "1600"}},
		{nil, nil},
	}
	r := rand.New(rand.NewSource(43))
	for i := 0; i < 40; i++ {
		var b batch
		for n := r.Intn(9); n > 0; n-- {
			b.keys = append(b.keys, fmt.Sprintf("k%d", r.Intn(12)))
			b.values = append(b.values, strings.Repeat(string(rune('a'+r.Intn(26))), r.Intn(80)))
		}
		batches = append(batches, b)
	}
	for i, b := range batches {
		ns := namespaces[i%len(namespaces)]
		got, err := one.call(dsOwner, "setValues", ns, toArgs(b.keys), toArgs(b.values))
		if err != nil {
			t.Fatalf("batch %d: setValues: %v", i, err)
		}
		var want []*ethtypes.Log
		for j := range b.keys {
			logs, err := each.call(dsOwner, "setValue", ns, b.keys[j], b.values[j])
			if err != nil {
				t.Fatalf("batch %d: setValue: %v", i, err)
			}
			want = append(want, logs...)
		}
		if err := sameLogs(got, want); err != nil {
			t.Errorf("batch %d %v: %v", i, b.keys, err)
		}
		if one.st.Root() != each.st.Root() {
			t.Fatalf("batch %d %v: storage differs", i, b.keys)
		}
	}
	for _, ns := range namespaces {
		if got, want := one.keys(ns), each.keys(ns); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("namespace %s enumerates %v, want %v", ns, got, want)
		}
	}
	if n := len(one.keys(namespaces[0])); n == 0 {
		t.Fatal("nothing was written")
	}
}

// TestSetValuesRevertsWhole: mismatched lengths and a caller other than
// the owner revert, with no state change and no log.
func TestSetValuesRevertsWhole(t *testing.T) {
	d := newDSEVM(t)
	ns := ethtypes.HexToAddress("0x00000000000000000000000000000000000000a1")
	if _, err := d.call(dsOwner, "setValues", ns, toArgs([]string{"a"}), toArgs([]string{"1"})); err != nil {
		t.Fatal(err)
	}
	root := d.st.Root()
	for name, tc := range map[string]struct {
		from         ethtypes.Address
		keys, values []string
	}{
		"more keys than values": {dsOwner, []string{"b", "c"}, []string{"2"}},
		"more values than keys": {dsOwner, []string{"b"}, []string{"2", "3"}},
		"no keys, one value":    {dsOwner, nil, []string{"2"}},
		"not the owner":         {dsStranger, []string{"b"}, []string{"2"}},
	} {
		logs, err := d.call(tc.from, "setValues", ns, toArgs(tc.keys), toArgs(tc.values))
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if len(logs) != 0 || d.st.Root() != root {
			t.Errorf("%s: %d logs, root moved: %v", name, len(logs), d.st.Root() != root)
		}
	}
	if got := d.keys(ns); len(got) != 1 || got[0] != "a=1" {
		t.Errorf("namespace = %v, want [a=1]", got)
	}
}

// TestOwnerSlotMatchesGetter: the owner word read from its layout slot
// is what the owner() getter returns, the deployer.
func TestOwnerSlotMatchesGetter(t *testing.T) {
	d := newDSEVM(t)
	got, err := (&DataStorageState{Addr: d.addr, Node: d}).Owner()
	if err != nil || got != dsOwner || d.get("owner").(ethtypes.Address) != dsOwner {
		t.Fatalf("owner slot = %s (%v), getter %v, want %s", got, err, d.get("owner"), dsOwner)
	}
}
