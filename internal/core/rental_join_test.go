package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"legalchain/internal/abi"
	"legalchain/internal/chain"
	"legalchain/internal/contracts"
	"legalchain/internal/ethtypes"
	"legalchain/internal/minisol"
	"legalchain/internal/uint256"
)

// rentHistoryByDecode is RentHistoryOf as it joined payments to their
// transactions before the typed scan: one FilterLogs per version, each
// log decoded by abi.DecodeLog into a map, the month read from it. It is
// the oracle of the join.
func rentHistoryByDecode(s *RentalService, line []VersionInfo) ([]PaymentRecord, error) {
	var out []PaymentRecord
	for _, node := range line {
		paid, err := s.M.payments(node.Address)
		if errors.Is(err, ErrNoField) {
			continue
		}
		if err != nil {
			return nil, err
		}
		bound, err := s.M.BindVersion(node.Address)
		if err != nil {
			return nil, err
		}
		txByMonth := map[uint64]*ethtypes.Log{}
		if _, ok := bound.ABI.Events["paidRent"]; ok {
			if evs, err := bound.FilterEvents("paidRent", 0); err == nil {
				for _, e := range evs {
					if m, ok := e.Args["month"].(uint256.Int); ok && e.Raw != nil {
						txByMonth[m.Uint64()] = e.Raw
					}
				}
			}
		}
		for _, p := range paid {
			p.Version = node.Version
			if l := txByMonth[p.Month]; l != nil {
				p.TxHash, p.Block = l.TxHash, l.BlockNumber
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// rentalVariant is BaseRental under another name with its paidRent
// event and emit rewritten, so a line can mix ABIs whose paidRent holds
// the month in different places.
func rentalVariant(t *testing.T, name, event, emit string) *minisol.Artifact {
	t.Helper()
	src := contracts.Sources()["BaseRental"]
	for _, r := range [][2]string{
		{"contract BaseRental", "contract " + name},
		{"event paidRent(address indexed tenant, uint month, uint amount);", event},
		{"emit paidRent(tenant, monthCounter, msg.value);", emit},
	} {
		if !strings.Contains(src, r[0]) {
			t.Fatalf("BaseRental has no %q", r[0])
		}
		src = strings.ReplaceAll(src, r[0], r[1])
	}
	art, err := minisol.CompileContract(src, name)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// TestPaymentJoinMatchesDecodeLog builds a paid line of four versions
// whose paidRent events differ: BaseRental (month the first data word),
// a variant with the same signature but the month the second data word,
// one whose month is indexed (a topic, and another signature), and
// RentalAgreementV2 (BaseRental's event again). For every paidRent log of each
// version, the typed month read equals DecodeLog's Args["month"]; the
// history from every version equals the decoding join's, and every
// payment names the transaction that paid it.
func TestPaymentJoinMatchesDecodeLog(t *testing.T) {
	m, accs, node := countingRig(t)
	landlord, tenant := accs[0].Address, accs[1].Address
	svc := NewRentalService(m)
	v1 := deployRental(t, m, landlord)
	svcConfirmAndPay(t, svc, tenant, v1.Contract.Address, 2)
	line := []ethtypes.Address{v1.Contract.Address}
	// extend links the next version after the tenant accepted the last
	// one and paid it twice.
	extend := func(art *minisol.Artifact) {
		prev := line[len(line)-1]
		if len(line) > 1 {
			if err := svc.ConfirmModification(tenant, prev); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if _, err := svc.PayRent(tenant, prev); err != nil {
					t.Fatal(err)
				}
			}
		}
		if art == nil {
			return
		}
		args := []interface{}{ethtypes.Ether(1), ethtypes.Ether(2), uint64(12), "10115-Berlin-42"}
		if art.Name == "RentalAgreementV2" {
			args = append(args, ethtypes.Ether(1), uint256.Zero, ethtypes.Ether(1))
		}
		dep, err := m.ModifyContract(landlord, prev, art, ModifyOptions{}, args...)
		if err != nil {
			t.Fatal(err)
		}
		line = append(line, dep.Contract.Address)
	}
	extend(rentalVariant(t, "SwappedRental", "event paidRent(address indexed tenant, uint amount, uint month);",
		"emit paidRent(tenant, msg.value, monthCounter);"))
	extend(rentalVariant(t, "IndexedRental", "event paidRent(uint amount, address tenant, uint indexed month);",
		"emit paidRent(msg.value, tenant, monthCounter);"))
	extend(contracts.MustArtifact("RentalAgreementV2"))
	extend(nil)

	logs := node.BC.FilterLogs(chain.FilterQuery{})
	seen := map[ethtypes.Address]int{}
	for _, addr := range line {
		parsed, err := m.ResolveABI(addr)
		if err != nil {
			t.Fatal(err)
		}
		ev := parsed.Events["paidRent"]
		n, ok := monthWord(ev)
		if !ok {
			t.Fatalf("%s: no month in %s", addr, ev.Signature())
		}
		for _, l := range logs {
			if l.Address != addr || len(l.Topics) == 0 || l.Topics[0] != ev.Topic() {
				continue
			}
			dec, err := parsed.DecodeLog(l)
			if err != nil {
				t.Fatal(err)
			}
			want := dec.Args["month"].(uint256.Int).Uint64()
			if got, ok := readMonth(l, n); !ok || got != want {
				t.Errorf("%s (%s): typed month %d (%v), DecodeLog %d", addr, ev.Signature(), got, ok, want)
			}
			seen[addr]++
		}
	}
	for i, addr := range line {
		if seen[addr] < 2 {
			t.Errorf("v%d has %d paidRent logs, want at least 2", i+1, seen[addr])
		}
	}

	for i, addr := range line {
		walked, err := m.WalkChain(addr)
		if err != nil {
			t.Fatal(err)
		}
		filters := node.filters
		got, err := svc.RentHistoryOf(walked)
		if err != nil {
			t.Fatal(err)
		}
		if n := node.filters - filters; n != 1 {
			t.Errorf("history from v%d sent %d FilterLogs, want 1", i+1, n)
		}
		want, err := rentHistoryByDecode(svc, walked)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("history from v%d:\n got %+v\nwant %+v", i+1, got, want)
		}
		if len(got) != 8 {
			t.Errorf("history from v%d holds %d payments, want 8", i+1, len(got))
		}
		for _, p := range got {
			if p.TxHash.IsZero() || p.Block == 0 {
				t.Errorf("v%d month %d names no transaction or block", p.Version, p.Month)
			}
		}
	}
}

// TestMonthWordFollowsDecodeLog: monthWord picks the argument
// DecodeLog's Args["month"] holds, at its place, and refuses one that
// is not an integer.
func TestMonthWordFollowsDecodeLog(t *testing.T) {
	arg := func(name, typ string, indexed bool) abi.Arg {
		ty, err := abi.ParseType(typ)
		if err != nil {
			t.Fatal(err)
		}
		return abi.Arg{Name: name, Type: ty, Indexed: indexed}
	}
	word := arg("w", "uint256", false)
	pair := abi.Arg{Name: "pair", Type: abi.Type{Kind: abi.KindTuple, Components: []abi.Arg{word, word}}}
	for _, c := range []struct {
		inputs []abi.Arg
		n      int
		ok     bool
	}{
		{[]abi.Arg{arg("tenant", "address", true), arg("month", "uint256", false), arg("amount", "uint256", false)}, 0, true},
		{[]abi.Arg{arg("amount", "uint256", false), arg("month", "uint256", false)}, 32, true},
		{[]abi.Arg{arg("note", "string", false), pair, arg("month", "uint64", false)}, 96, true},
		{[]abi.Arg{arg("a", "address", true), arg("month", "uint256", true)}, -2, true},
		{[]abi.Arg{arg("month", "uint256", true), arg("month", "int32", false)}, 0, true},
		{[]abi.Arg{arg("month", "uint256", false), arg("month", "uint256", true)}, 0, true},
		{[]abi.Arg{arg("month", "string", false)}, 0, false},
		{[]abi.Arg{arg("amount", "uint256", false)}, 0, false},
	} {
		n, ok := monthWord(abi.Event{Name: "paidRent", Inputs: c.inputs})
		if ok != c.ok || (ok && n != c.n) {
			t.Errorf("%v: monthWord = %d, %v; want %d, %v", c.inputs, n, ok, c.n, c.ok)
		}
	}
}
