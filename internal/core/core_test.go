package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"legalchain/internal/chain"
	"legalchain/internal/contracts"
	"legalchain/internal/docstore"
	"legalchain/internal/ethtypes"
	"legalchain/internal/ipfs"
	"legalchain/internal/minisol"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
	"legalchain/internal/web3"
)

// rig assembles the full four-tier stack in process.
func rig(t *testing.T) (*Manager, []wallet.Account) {
	t.Helper()
	return rigOver(t, func(b *web3.LocalBackend) web3.Backend { return b })
}

// rigOver is rig with the node wrapped by the caller, for tests that
// watch what the manager asks of it.
func rigOver(t testing.TB, wrap func(*web3.LocalBackend) web3.Backend) (*Manager, []wallet.Account) {
	t.Helper()
	accs := wallet.DevAccounts("core test", 4)
	g := chain.DefaultGenesis()
	g.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(1000))
	bc := chain.New(g)
	ks := wallet.NewKeystore()
	for _, a := range accs {
		ks.Import(a.Key)
	}
	client, err := web3.NewClient(wrap(web3.NewLocalBackend(bc)), ks)
	if err != nil {
		t.Fatal(err)
	}
	store, err := docstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return NewManager(client, ipfs.NewNode(ipfs.NewMemStore()), store), accs
}

// countingBackend counts the eth_calls that reach the node, the
// transactions sent to it, the code reads, the log scans and the
// storage words read, in total and per contract slot.
type countingBackend struct {
	*web3.LocalBackend
	calls        int
	sends        int
	getCodes     int
	filters      int
	storageReads int
	slots        map[contractSlot]int
}

// contractSlot is one storage word: a slot of one contract. Versions
// share their pointer slots, so a slot alone does not name a word.
type contractSlot struct {
	addr ethtypes.Address
	slot ethtypes.Hash
}

// StorageAt counts the storage words read, and how often each word.
func (b *countingBackend) StorageAt(addr ethtypes.Address, slot ethtypes.Hash) (ethtypes.Hash, error) {
	b.storageReads++
	if b.slots == nil {
		b.slots = map[contractSlot]int{}
	}
	b.slots[contractSlot{addr, slot}]++
	return b.LocalBackend.StorageAt(addr, slot)
}

// rereads forgets the per-word counts and returns how many words had
// been read more than once since the last call.
func (b *countingBackend) rereads() int {
	n := 0
	for _, k := range b.slots {
		if k > 1 {
			n++
		}
	}
	b.slots = nil
	return n
}

// GetCode counts the code reads that reach the node.
func (b *countingBackend) GetCode(addr ethtypes.Address) ([]byte, error) {
	b.getCodes++
	return b.LocalBackend.GetCode(addr)
}

// SendRawTransactionCtx is the eth_sendRawTransaction the client sends
// through when the backend has it, as LocalBackend does.
func (b *countingBackend) SendRawTransactionCtx(ctx context.Context, raw []byte) (ethtypes.Hash, error) {
	b.sends++
	return b.LocalBackend.SendRawTransactionCtx(ctx, raw)
}

func (b *countingBackend) CallContract(msg web3.CallMsg) ([]byte, error) {
	b.calls++
	return b.LocalBackend.CallContract(msg)
}

func (b *countingBackend) FilterLogs(q chain.FilterQuery) ([]*ethtypes.Log, error) {
	b.filters++
	return b.LocalBackend.FilterLogs(q)
}

// countingRig is rig over a countingBackend.
func countingRig(t *testing.T) (*Manager, []wallet.Account, *countingBackend) {
	t.Helper()
	var node *countingBackend
	m, accs := rigOver(t, func(b *web3.LocalBackend) web3.Backend {
		node = &countingBackend{LocalBackend: b}
		return node
	})
	return m, accs, node
}

func deployRental(t *testing.T, m *Manager, landlord ethtypes.Address) *Deployment {
	t.Helper()
	svc := NewRentalService(m)
	dep, err := svc.DeployRental(landlord, RentalTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", LegalDoc: []byte("%PDF-1.4 rental agreement v1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func TestDeployVersionPublishesEverything(t *testing.T) {
	m, accs := rig(t)
	landlord := accs[0].Address
	dep := deployRental(t, m, landlord)

	// Row recorded; its state read from the chain.
	row, err := m.GetRow(dep.Contract.Address)
	if err == nil {
		row, err = m.Describe(row, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	if row.Version != 1 || row.State != StateActive || row.Landlord != landlord.Hex() {
		t.Fatalf("row = %+v", row)
	}
	// ABI resolvable from the address alone.
	resolved, err := m.ResolveABI(dep.Contract.Address)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resolved.Methods["payRent"]; !ok {
		t.Fatal("resolved ABI lacks payRent")
	}
	// Legal document retrievable and intact.
	doc, err := m.LegalDocument(dep.Contract.Address)
	if err != nil || !strings.Contains(string(doc), "rental agreement v1") {
		t.Fatalf("document: %q %v", doc, err)
	}
	// Binding from scratch works.
	bound, err := m.BindVersion(dep.Contract.Address)
	if err != nil {
		t.Fatal(err)
	}
	rent, err := bound.CallUint(landlord, "rent")
	if err != nil || rent != ethtypes.Ether(1) {
		t.Fatalf("rent = %s, %v", rent, err)
	}
}

func TestResolveABIMissing(t *testing.T) {
	m, _ := rig(t)
	_, err := m.ResolveABI(ethtypes.HexToAddress("0x00000000000000000000000000000000000000ff"))
	if !errors.Is(err, ErrNoABI) {
		t.Fatalf("err = %v", err)
	}
}

func TestModifyBuildsEvidenceLine(t *testing.T) {
	m, accs := rig(t)
	landlord, tenant := accs[0].Address, accs[1].Address
	svc := NewRentalService(m)
	v1 := deployRental(t, m, landlord)
	if err := svc.Confirm(tenant, v1.Contract.Address); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.PayRent(tenant, v1.Contract.Address); err != nil {
		t.Fatal(err)
	}

	v2, err := svc.Modify(landlord, v1.Contract.Address, ModifiedTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: uint256.Zero, Fine: ethtypes.Ether(1),
		LegalDoc: []byte("%PDF-1.4 rental agreement v2"),
	})
	if err != nil {
		t.Fatal(err)
	}
	v3, err := svc.Modify(landlord, v2.Contract.Address, ModifiedTerms{
		Rent: ethtypes.Ether(2), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: uint256.Zero, Fine: ethtypes.Ether(1),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Walk from the middle: the full chain comes back in order.
	chainInfo, err := m.WalkChain(v2.Contract.Address)
	if err != nil {
		t.Fatal(err)
	}
	if len(chainInfo) != 3 {
		t.Fatalf("chain length = %d", len(chainInfo))
	}
	if chainInfo[0].Address != v1.Contract.Address ||
		chainInfo[1].Address != v2.Contract.Address ||
		chainInfo[2].Address != v3.Contract.Address {
		t.Fatal("chain order wrong")
	}
	if err := VerifyChain(chainInfo); err != nil {
		t.Fatal(err)
	}
	// Versions increase, states derived from the chain.
	if err := m.deriveStates(chainInfo); err != nil {
		t.Fatal(err)
	}
	if chainInfo[0].Version != 1 || chainInfo[1].Version != 2 || chainInfo[2].Version != 3 {
		t.Fatalf("versions = %d %d %d", chainInfo[0].Version, chainInfo[1].Version, chainInfo[2].Version)
	}
	if chainInfo[0].State != StateSuperseded || chainInfo[1].State != StateSuperseded || chainInfo[2].State != StateActive {
		t.Fatalf("states = %s %s %s", chainInfo[0].State, chainInfo[1].State, chainInfo[2].State)
	}
	// Head/Latest helpers.
	head, _ := m.Head(v3.Contract.Address)
	latest, _ := m.Latest(v1.Contract.Address)
	if head != v1.Contract.Address || latest != v3.Contract.Address {
		t.Fatal("head/latest")
	}
}

// TestWalkChainReadsEachVersionOnce pins the cost of a walk: the
// previous and next storage words once per version, and no eth_call,
// the same from every starting point — the forward pass must not re-read
// what the backward pass already holds.
func TestWalkChainReadsEachVersionOnce(t *testing.T) {
	m, accs, node := countingRig(t)
	landlord, tenant := accs[0].Address, accs[1].Address
	svc := NewRentalService(m)
	line := []ethtypes.Address{deployRental(t, m, landlord).Contract.Address}
	svcConfirmAndPay(t, svc, tenant, line[0], 1)
	for v := 2; v <= 4; v++ {
		next, err := svc.Modify(landlord, line[len(line)-1], ModifiedTerms{
			Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
			House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
			Discount: uint256.Zero, Fine: ethtypes.Ether(1),
		})
		if err != nil {
			t.Fatal(err)
		}
		line = append(line, next.Contract.Address)
	}
	for i, start := range line {
		calls, reads := node.calls, node.storageReads
		node.rereads()
		walked, err := m.WalkChain(start)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyChain(walked); err != nil || len(walked) != len(line) {
			t.Fatalf("walk from v%d: %d versions, %v", i+1, len(walked), err)
		}
		for j, v := range walked {
			if v.Address != line[j] {
				t.Fatalf("walk from v%d: position %d is %s, want %s", i+1, j+1, v.Address, line[j])
			}
		}
		if got := node.calls - calls; got != 0 {
			t.Errorf("walk from v%d made %d eth_calls, want none", i+1, got)
		}
		if got, want := node.storageReads-reads, 2*len(line); got != want || want != 8 {
			t.Errorf("walk from v%d read %d storage words, want %d (8: previous+next per version)", i+1, got, want)
		}
		if n := node.rereads(); n != 0 {
			t.Errorf("walk from v%d read %d storage words more than once", i+1, n)
		}
	}
}

// TestWalkChainDecodesEachRowOnce pins the row memo: a manager reads a
// registry row from the docstore once, the writer's manager not at all,
// and a miss is read again, so a row published later is found. Rows
// renamed in the docstore behind the managers' backs tell which answered:
// a manager's memo keeps the name it first read, a docstore read sees
// the new one.
func TestWalkChainDecodesEachRowOnce(t *testing.T) {
	m, accs := rig(t)
	landlord := accs[0].Address
	line := evidenceLine(t, m, landlord, accs[1].Address)
	starts := []int{4, 0, 7, 2, 7, 5, 0, 3, 6, 1}
	rename := func(addr ethtypes.Address, name string) {
		t.Helper()
		key := strings.ToLower(addr.Hex())
		var row ContractRow
		if err := m.Store.Get(TableContracts, key, &row); err != nil {
			t.Fatal(err)
		}
		row.Name = name
		if err := m.Store.Put(TableContracts, key, row); err != nil {
			t.Fatal(err)
		}
	}
	renameLine := func(tag string) []string {
		t.Helper()
		names := make([]string, len(line))
		for j, addr := range line {
			names[j] = fmt.Sprintf("%s-v%d", tag, j+1)
			rename(addr, names[j])
		}
		return names
	}
	walkAll := func(mgr *Manager, what string, names []string) {
		t.Helper()
		for _, i := range starts {
			walked, err := mgr.WalkChain(line[i])
			if err != nil || len(walked) != len(line) {
				t.Fatalf("%s: walk from v%d: %d versions, %v", what, i+1, len(walked), err)
			}
			for j, v := range walked {
				if v.Address != line[j] || v.Version != j+1 || v.Name != names[j] {
					t.Fatalf("%s: walk from v%d: position %d is %s v%d %q, want %q", what, i+1, j+1, v.Address, v.Version, v.Name, names[j])
				}
			}
		}
	}
	var published []string // read by another manager: m must read none
	reader := NewManager(m.Client, m.IPFS, m.Store)
	for _, addr := range line {
		row, err := reader.GetRow(addr)
		if err != nil || row.Name == "" {
			t.Fatalf("row of %s: %+v, %v", addr, row, err)
		}
		published = append(published, row.Name)
	}

	// The writer published every row, so it reads none, and a caller's
	// change to a returned row stays with that caller.
	renamed := renameLine("renamed")
	walkAll(m, "writer", published)
	row, err := m.GetRow(line[0])
	if err != nil {
		t.Fatal(err)
	}
	row.Name = "changed"
	if again, _ := m.GetRow(line[0]); again.Name != published[0] {
		t.Fatalf("after a caller changed its copy, the row reads %q, want %q", again.Name, published[0])
	}

	// A cold manager reads each row, and reads it once, however many
	// walks it makes and wherever they start.
	cold := NewManager(m.Client, m.IPFS, m.Store)
	walkAll(cold, "cold", renamed)
	renameLine("renamed again")
	walkAll(cold, "cold, rows renamed again", renamed)

	// Walks and a publish on one cold manager at once (-race).
	busy := NewManager(m.Client, m.IPFS, m.Store)
	var dep *Deployment
	var wg sync.WaitGroup
	for _, i := range starts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if walked, err := busy.WalkChain(line[i]); err != nil || len(walked) != len(line) {
				t.Errorf("concurrent walk from v%d: %d versions, %v", i+1, len(walked), err)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		dep, err = NewRentalService(busy).DeployRental(landlord, RentalTerms{
			Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12, House: "10115-Berlin-43",
		})
		if err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if dep == nil {
		t.FailNow()
	}
	rename(dep.Contract.Address, "renamed")
	if row, err := busy.GetRow(dep.Contract.Address); err != nil || row != dep.Row.registered() {
		t.Errorf("the row it published reads %+v, %v; want %+v", row, err, dep.Row.registered())
	}

	// A miss is not remembered: another manager's publish is seen.
	absent := ethtypes.HexToAddress("0x00000000000000000000000000000000000000ab")
	for i := 0; i < 2; i++ {
		if _, err := cold.GetRow(absent); !errors.Is(err, docstore.ErrNotFound) {
			t.Fatalf("miss %d: %v, want docstore.ErrNotFound", i+1, err)
		}
	}
	want, err := NewManager(m.Client, m.IPFS, m.Store).publish(ContractRow{
		Address: absent.Hex(), Name: "BaseRental", Landlord: landlord.Hex(), Version: 1,
	}, contracts.MustArtifact("BaseRental"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := cold.GetRow(absent); err != nil || got != want {
		t.Fatalf("row published by another manager reads %+v, %v; want %+v", got, err, want)
	}
}

// Shape of the audit benchmark's evidence line: eight versions, four
// data keys written on the first.
const (
	lineVersions  = 8
	lineExtraKeys = 4
)

// evidenceLine builds one agreement as the audit benchmark does: v1
// confirmed with lineExtraKeys data keys, then modified and confirmed up
// to lineVersions versions, each paid once. Every modification
// snapshots the rental keys of the superseded version and adopts its
// namespace, so the newest version reads v1's keys seven levels deep.
func evidenceLine(t *testing.T, m *Manager, landlord, tenant ethtypes.Address) []ethtypes.Address {
	t.Helper()
	svc := NewRentalService(m)
	line := []ethtypes.Address{deployRental(t, m, landlord).Contract.Address}
	if err := svc.Confirm(tenant, line[0]); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < lineExtraKeys; k++ {
		if _, err := m.SetValue(landlord, line[0], fmt.Sprintf("clause-%d", k), fmt.Sprintf("term %d", k)); err != nil {
			t.Fatal(err)
		}
	}
	for v := 1; ; v++ {
		cur := line[len(line)-1]
		if _, err := svc.PayRent(tenant, cur); err != nil {
			t.Fatal(err)
		}
		if v == lineVersions {
			return line
		}
		next, err := svc.Modify(landlord, cur, ModifiedTerms{
			Rent: ethtypes.Ether(int64(v)), Deposit: ethtypes.Ether(2), Months: 12,
			House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
			Discount: uint256.Zero, Fine: ethtypes.Ether(1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.ConfirmModification(tenant, next.Contract.Address); err != nil {
			t.Fatal(err)
		}
		line = append(line, next.Contract.Address)
	}
}

// storedWords is the number of storage words a string occupies:
// one in the short form (under 32 bytes), else the length word and one
// per 32 bytes.
func storedWords(s string) int {
	if len(s) < 32 {
		return 1
	}
	return 1 + (len(s)+31)/32
}

// TestLoadSnapshotReadsEachValueOnce pins the cost of LoadSnapshot on the
// newest version of an eight-version line: every key of every namespace
// is enumerated, but each distinct key's value is read once, from the
// newest namespace that holds it. The reads are DataStorage storage
// words, none of them twice, and no getter runs. The map is the one the
// oldest-first merge returns, for every version of the line.
func TestLoadSnapshotReadsEachValueOnce(t *testing.T) {
	m, accs, node := countingRig(t)
	landlord := accs[0].Address
	line := evidenceLine(t, m, landlord, accs[1].Address)
	head := line[len(line)-1]

	calls, reads := node.calls, node.storageReads
	node.rereads()
	snap, err := m.LoadSnapshot(landlord, head)
	if err != nil {
		t.Fatal(err)
	}
	if got := node.calls - calls; got != 0 {
		t.Errorf("LoadSnapshot made %d eth_calls, want none", got)
	}
	if n := node.rereads(); n != 0 {
		t.Errorf("LoadSnapshot read %d storage slots more than once", n)
	}
	if want := lineExtraKeys + len(rentalSnapshotKeys); len(snap) != want {
		t.Errorf("snapshot of v%d: %d keys, want %d", len(line), len(snap), want)
	}
	// Per namespace: the aliasOf and keyCount words. Per key held: its
	// keyAt string. Per distinct key: its value, once. Seven superseded
	// versions snapshot the rental keys, v1 holds the clauses as well.
	want := 2 * len(line)
	for _, k := range rentalSnapshotKeys {
		want += (len(line) - 1) * storedWords(k)
	}
	for k := 0; k < lineExtraKeys; k++ {
		want += storedWords(fmt.Sprintf("clause-%d", k))
	}
	for _, v := range snap {
		want += storedWords(v)
	}
	if got := node.storageReads - reads; got != want || want != 76 {
		t.Errorf("LoadSnapshot read %d storage words, want %d (76)", got, want)
	}
	if snap["rent"] != ethtypes.Ether(int64(len(line)-2)).String() || snap["clause-0"] != "term 0" {
		t.Errorf("snapshot = %v", snap)
	}
	for i, addr := range line {
		if got, err := m.LoadSnapshot(landlord, addr); err != nil || !reflect.DeepEqual(got, loadSnapshotOldestFirst(t, m, landlord, addr)) {
			t.Errorf("v%d: newest-first snapshot %v differs from the oldest-first merge (%v)", i+1, got, err)
		}
	}
}

// TestAuditChainReadsEvidenceOncePerVersion pins AuditChain's node reads:
// three storage words per version — the walk's previous and next words
// and the empty rejection count in the version's own namespace — and
// one code read per version, which the pair diffs reuse. There is no
// alias resolution, since evidence is never inherited, and no eth_call.
func TestAuditChainReadsEvidenceOncePerVersion(t *testing.T) {
	m, accs, node := countingRig(t)
	landlord := accs[0].Address
	line := evidenceLine(t, m, landlord, accs[1].Address)

	calls, codes, reads := node.calls, node.getCodes, node.storageReads
	node.rereads()
	report, err := m.AuditChain(landlord, line[len(line)-1])
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Versions) != len(line) || len(report.Rejections) != 0 {
		t.Fatalf("audit: %d versions, %d rejections", len(report.Versions), len(report.Rejections))
	}
	if got := node.calls - calls; got != 0 {
		t.Errorf("AuditChain made %d eth_calls, want none", got)
	}
	if got, want := node.storageReads-reads, 3*len(line); got != want || want != 24 {
		t.Errorf("AuditChain read %d storage words, want %d (24)", got, want)
	}
	if n := node.rereads(); n != 0 {
		t.Errorf("AuditChain read %d storage words more than once", n)
	}
	if got := node.getCodes - codes; got != len(line) || got != 8 {
		t.Errorf("AuditChain read code %d times, want %d (8)", got, len(line))
	}
}

// TestGetValueFollowsAliasOnlyOnMiss pins GetValue's cost in storage
// words: a key in the version's own namespace is its hasKey word and
// its (short) value; a key seven levels deep adds one hasKey miss and
// one aliasOf word per level above it. No getter runs.
func TestGetValueFollowsAliasOnlyOnMiss(t *testing.T) {
	m, accs, node := countingRig(t)
	landlord := accs[0].Address
	line := evidenceLine(t, m, landlord, accs[1].Address)
	for _, c := range []struct {
		addr      ethtypes.Address
		key, want string
		reads     int
	}{
		{line[len(line)-2], "house", "10115-Berlin-42", 2},
		{line[len(line)-1], "clause-1", "term 1", 2 + 2*(len(line)-1)},
		{line[len(line)-1], "no-such-key", "", 2 * len(line)},
	} {
		calls, reads := node.calls, node.storageReads
		got, err := m.GetValue(landlord, c.addr, c.key)
		if err != nil || got != c.want {
			t.Fatalf("GetValue(%s) = %q, %v; want %q", c.key, got, err, c.want)
		}
		if n := node.storageReads - reads; n != c.reads {
			t.Errorf("GetValue(%s) read %d storage words, want %d", c.key, n, c.reads)
		}
		if n := node.calls - calls; n != 0 {
			t.Errorf("GetValue(%s) made %d eth_calls, want none", c.key, n)
		}
	}
}

func TestDataMigrationAcrossVersions(t *testing.T) {
	m, accs := rig(t)
	landlord, tenant := accs[0].Address, accs[1].Address
	svc := NewRentalService(m)
	v1 := deployRental(t, m, landlord)
	svcConfirmAndPay(t, svc, tenant, v1.Contract.Address, 3)

	v2, err := svc.Modify(landlord, v1.Contract.Address, ModifiedTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: uint256.Zero, Fine: ethtypes.Ether(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot of v1 was migrated into v2's namespace.
	snap, err := m.LoadSnapshot(landlord, v2.Contract.Address)
	if err != nil {
		t.Fatal(err)
	}
	if snap["rent"] != ethtypes.Ether(1).String() {
		t.Fatalf("migrated rent = %q", snap["rent"])
	}
	if snap["monthCounter"] != "3" {
		t.Fatalf("migrated monthCounter = %q", snap["monthCounter"])
	}
	if snap["tenant"] != tenant.Hex() {
		t.Fatalf("migrated tenant = %q", snap["tenant"])
	}
	if snap["house"] != "10115-Berlin-42" {
		t.Fatalf("migrated house = %q", snap["house"])
	}
	// The old namespace still holds the originals (immutability of the
	// evidence line).
	old, err := m.LoadSnapshot(landlord, v1.Contract.Address)
	if err != nil || old["monthCounter"] != "3" {
		t.Fatal("old namespace lost")
	}
}

func svcConfirmAndPay(t *testing.T, svc *RentalService, tenant, addr ethtypes.Address, months int) {
	t.Helper()
	if err := svc.Confirm(tenant, addr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < months; i++ {
		if _, err := svc.PayRent(tenant, addr); err != nil {
			t.Fatal(err)
		}
	}
}

// afterSendBackend runs after, once, when the next raw transaction has
// gone through.
type afterSendBackend struct {
	*web3.LocalBackend
	after func()
}

func (b *afterSendBackend) SendRawTransactionCtx(ctx context.Context, raw []byte) (ethtypes.Hash, error) {
	h, err := b.LocalBackend.SendRawTransactionCtx(ctx, raw)
	if f := b.after; f != nil {
		b.after = nil
		f()
	}
	return h, err
}

// TestLifecycleSurvivesClosedRegistry: accepting a modification, or
// refusing one for a bad consent, writes no registry row, so it
// completes with the docstore closed at the moment a row write used to
// follow the transaction.
func TestLifecycleSurvivesClosedRegistry(t *testing.T) {
	terms := ModifiedTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(1), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: uint256.Zero, Fine: ethtypes.Ether(1),
	}
	t.Run("ConfirmModification", func(t *testing.T) {
		var b *afterSendBackend
		m, accs := rigOver(t, func(lb *web3.LocalBackend) web3.Backend {
			b = &afterSendBackend{LocalBackend: lb}
			return b
		})
		landlord, tenant := accs[0].Address, accs[1].Address
		svc := NewRentalService(m)
		v1 := deployRental(t, m, landlord)
		svcConfirmAndPay(t, svc, tenant, v1.Contract.Address, 1)
		v2, err := svc.Modify(landlord, v1.Contract.Address, terms)
		if err != nil {
			t.Fatal(err)
		}
		// v2's ABI is resolved while the store is open; the store then
		// closes once v1's termination is sent.
		if _, err := m.BindVersion(v2.Contract.Address); err != nil {
			t.Fatal(err)
		}
		b.after = func() { m.Store.Close() }
		if err := svc.ConfirmModification(tenant, v2.Contract.Address); err != nil {
			t.Fatalf("ConfirmModification with the store closed = %v", err)
		}
		if st, err := v2.Contract.CallUint(tenant, "state"); err != nil || st.Uint64() != enumStarted {
			t.Fatalf("v2 state = %v (%v), want %d (confirmed)", st, err, enumStarted)
		}
	})
	t.Run("ModifyWithConsent", func(t *testing.T) {
		m, accs := rig(t)
		landlord, tenant := accs[0].Address, accs[1].Address
		svc := NewRentalService(m)
		v1 := deployRental(t, m, landlord)
		svcConfirmAndPay(t, svc, tenant, v1.Contract.Address, 1)
		ks := m.Client.Keystore()
		_, err := svc.ModifyWithConsent(landlord, v1.Contract.Address, terms, func(newAddr ethtypes.Address) ([]byte, error) {
			m.Store.Close()
			return SignConsent(ks, accs[2].Address, v1.Contract.Address, newAddr)
		})
		if !errors.Is(err, ErrBadConsent) || errors.Is(err, docstore.ErrClosed) {
			t.Fatalf("refused consent with the store closed = %v, want %v alone", err, ErrBadConsent)
		}
	})
}

func TestConfirmModificationTerminatesOld(t *testing.T) {
	m, accs := rig(t)
	landlord, tenant := accs[0].Address, accs[1].Address
	svc := NewRentalService(m)
	v1 := deployRental(t, m, landlord)
	svcConfirmAndPay(t, svc, tenant, v1.Contract.Address, 2)

	v2, err := svc.Modify(landlord, v1.Contract.Address, ModifiedTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(1), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: uint256.Zero, Fine: ethtypes.Ether(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.ConfirmModification(tenant, v2.Contract.Address); err != nil {
		t.Fatal(err)
	}
	// Old version is terminated on chain; new one is started.
	oldBound, _ := m.BindVersion(v1.Contract.Address)
	st, _ := oldBound.CallUint(tenant, "state")
	if st.Uint64() != 2 {
		t.Fatal("old version not terminated")
	}
	newBound, _ := m.BindVersion(v2.Contract.Address)
	st, _ = newBound.CallUint(tenant, "state")
	if st.Uint64() != 1 {
		t.Fatal("new version not started")
	}
	// New clause callable through the service.
	if _, err := svc.PayMaintenance(tenant, v2.Contract.Address); err != nil {
		t.Fatal(err)
	}
	// Cross-version rent history.
	if _, err := svc.PayRent(tenant, v2.Contract.Address); err != nil {
		t.Fatal(err)
	}
	hist, err := svc.RentHistory(tenant, v1.Contract.Address)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 { // 2 on v1, 1 on v2
		t.Fatalf("history = %d records", len(hist))
	}
	if hist[0].Version != 1 || hist[2].Version != 2 {
		t.Fatalf("history versions: %+v", hist)
	}
}

func TestRejectModification(t *testing.T) {
	m, accs := rig(t)
	landlord, tenant := accs[0].Address, accs[1].Address
	svc := NewRentalService(m)
	v1 := deployRental(t, m, landlord)
	svcConfirmAndPay(t, svc, tenant, v1.Contract.Address, 1)
	v2, err := svc.Modify(landlord, v1.Contract.Address, ModifiedTerms{
		Rent: ethtypes.Ether(3), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: uint256.Zero, Fine: ethtypes.Ether(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.RejectModification(tenant, v2.Contract.Address); err != nil {
		t.Fatal(err)
	}
	// Paper: rejection terminates the previous contract.
	oldBound, _ := m.BindVersion(v1.Contract.Address)
	st, _ := oldBound.CallUint(tenant, "state")
	if st.Uint64() != 2 {
		t.Fatal("previous contract not terminated on rejection")
	}
	row, _ := m.GetRow(v2.Contract.Address)
	if row, err = m.Describe(row, nil); err != nil || row.State != StateRejected {
		t.Fatalf("new version state = %s (%v)", row.State, err)
	}
	// The rejected version never starts.
	newBound, _ := m.BindVersion(v2.Contract.Address)
	st, _ = newBound.CallUint(tenant, "state")
	if st.Uint64() != 0 {
		t.Fatal("rejected version started")
	}
}

func TestVerifyChainDetectsCorruption(t *testing.T) {
	a1 := ethtypes.HexToAddress("0x0000000000000000000000000000000000000001")
	a2 := ethtypes.HexToAddress("0x0000000000000000000000000000000000000002")
	good := []VersionInfo{
		{Address: a1, Next: a2, Version: 1},
		{Address: a2, Prev: a1, Version: 2},
	}
	if err := VerifyChain(good); err != nil {
		t.Fatal(err)
	}
	bad := []VersionInfo{
		{Address: a1, Next: a2, Version: 1},
		{Address: a2, Prev: a1, Version: 1}, // non-increasing
	}
	if err := VerifyChain(bad); err == nil {
		t.Fatal("non-increasing versions accepted")
	}
	broken := []VersionInfo{
		{Address: a1, Next: a1, Version: 1}, // next points elsewhere
		{Address: a2, Prev: a1, Version: 2},
	}
	if err := VerifyChain(broken); err == nil {
		t.Fatal("broken forward pointer accepted")
	}
	if err := VerifyChain(nil); err == nil {
		t.Fatal("empty chain accepted")
	}
}

// TestWalkChainRequiresVersionPointers: a version is versioned when its
// published layout declares next and previous, each an address in one
// slot; its getters do not count. A BaseRental published without its
// layout, layouts without previous or with a uint256 next, and
// DataStorage are not, whatever their next holds: WalkChain and
// ModifyContract return ErrNotVersioned, ModifyContract before it sends
// a transaction, and Describe shows the row without a Next.
func TestWalkChainRequiresVersionPointers(t *testing.T) {
	m, accs, node := countingRig(t)
	landlord, elsewhere := accs[0].Address, accs[3].Address
	noLayout := *contracts.MustArtifact("BaseRental")
	noLayout.Layout = nil
	compile := func(src, name string) *minisol.Artifact {
		t.Helper()
		art, err := minisol.CompileContract(src, name)
		if err != nil {
			t.Fatal(err)
		}
		return art
	}
	type notVersioned struct {
		name string
		art  *minisol.Artifact // nil: DataStorage, deployed below
		args []interface{}
	}
	var addrs []ethtypes.Address
	cases := []notVersioned{
		{"no layout", &noLayout, []interface{}{ethtypes.Ether(1), ethtypes.Ether(2), uint256.NewUint64(12), "10115-Berlin-42"}},
		{"no previous", compile(`contract NoPrev { address public next; address public before;
	function setNext(address _next) public { next = _next; }
	function getNext() public view returns (address addr) { return next; }
	function getPrev() public view returns (address addr) { return before; }
}`, "NoPrev"), nil},
		{"uint256 next", compile(`contract WideNext { uint public next; address public previous;
	function setNext(address _next) public { next = uint(_next); }
	function getNext() public view returns (address addr) { return address(next); }
	function getPrev() public view returns (address addr) { return previous; }
}`, "WideNext"), nil},
	}
	for _, c := range cases {
		dep, err := m.DeployVersion(landlord, c.art, nil, c.args...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := dep.Contract.Transact(web3.TxOpts{From: landlord}, "setNext", elsewhere); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		addrs = append(addrs, dep.Contract.Address)
	}
	ds, err := m.EnsureDataStorage(landlord)
	if err != nil {
		t.Fatal(err)
	}
	// Registered like a version, so the walk can resolve it.
	row := ContractRow{Address: ds.Address.Hex(), Name: "DataStorage", Version: 1, State: StateActive}
	if _, err := m.publish(row, contracts.MustArtifact("DataStorage"), nil); err != nil {
		t.Fatal(err)
	}
	cases = append(cases, notVersioned{name: "DataStorage"})
	addrs = append(addrs, ds.Address)

	for i, c := range cases {
		if _, err := m.WalkChain(addrs[i]); !errors.Is(err, ErrNotVersioned) {
			t.Errorf("%s: WalkChain = %v, want ErrNotVersioned", c.name, err)
		}
		sends := node.sends
		if _, err := m.ModifyContract(landlord, addrs[i], contracts.MustArtifact("RentalAgreementV2"), ModifyOptions{}, v2Args()...); !errors.Is(err, ErrNotVersioned) {
			t.Errorf("%s: ModifyContract = %v, want ErrNotVersioned", c.name, err)
		}
		if n := node.sends - sends; n != 0 {
			t.Errorf("%s: ModifyContract sent %d transactions, want none", c.name, n)
		}
		row, err := m.GetRow(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		if got, err := m.Describe(row, nil); err != nil || got.Next != "" || got.State != StateActive {
			t.Errorf("%s: Describe = %+v, %v; want the row, active, without a Next", c.name, got, err)
		}
	}
}

func TestRowsListing(t *testing.T) {
	m, accs := rig(t)
	deployRental(t, m, accs[0].Address)
	deployRental(t, m, accs[1].Address)
	rows := m.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
}

// TestWalkChainDetectsCycle builds a malicious pointer cycle directly
// through the contracts and checks the walker refuses it instead of
// spinning.
func TestWalkChainDetectsCycle(t *testing.T) {
	m, accs := rig(t)
	landlord := accs[0].Address
	a := deployRental(t, m, landlord)
	b := deployRental(t, m, landlord)
	// a.next = b, b.next = a, and prev pointers forming the same loop.
	if _, err := a.Contract.Transact(web3.TxOpts{From: landlord}, "setNext", b.Contract.Address); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Contract.Transact(web3.TxOpts{From: landlord}, "setNext", a.Contract.Address); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Contract.Transact(web3.TxOpts{From: landlord}, "setPrev", b.Contract.Address); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Contract.Transact(web3.TxOpts{From: landlord}, "setPrev", a.Contract.Address); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WalkChain(a.Contract.Address); !errors.Is(err, ErrChainCorrupted) {
		t.Fatalf("cycle walk: %v", err)
	}
}

// TestModifyOnlyAtTheTail: after v1 → v2, modifying v1 again would link
// a second successor and fork the evidence line. It is refused with
// ErrSuperseded before the guard runs: no transaction is sent, no
// rejection is recorded, and the line still reads v1, v2.
func TestModifyOnlyAtTheTail(t *testing.T) {
	m, accs, node := countingRig(t)
	landlord, tenant := accs[0].Address, accs[1].Address
	svc := NewRentalService(m)
	v1 := deployRental(t, m, landlord).Contract.Address
	if err := svc.Confirm(tenant, v1); err != nil {
		t.Fatal(err)
	}
	terms := ModifiedTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: uint256.Zero, Fine: ethtypes.Ether(1),
	}
	v2, err := svc.Modify(landlord, v1, terms)
	if err != nil {
		t.Fatal(err)
	}
	sends := node.sends
	if _, err := svc.Modify(landlord, v1, terms); !errors.Is(err, ErrSuperseded) {
		t.Fatalf("second modification of v1: %v, want ErrSuperseded", err)
	}
	if n := node.sends - sends; n != 0 {
		t.Errorf("the refused modification sent %d transactions, want none", n)
	}
	if rejs, err := m.Rejections(landlord, v1); err != nil || len(rejs) != 0 {
		t.Errorf("v1 records %d rejections (%v), want none", len(rejs), err)
	}
	for _, start := range []ethtypes.Address{v1, v2.Contract.Address} {
		line, err := m.WalkChain(start)
		if err != nil || len(line) != 2 || line[0].Address != v1 || line[1].Address != v2.Contract.Address {
			t.Fatalf("WalkChain(%s) = %v, %v; want v1, v2", start, line, err)
		}
	}
	// The tail still takes a modification.
	if _, err := svc.Modify(landlord, v2.Contract.Address, terms); err != nil {
		t.Fatalf("modifying the tail: %v", err)
	}
}

// TestWalkChainRefusesForkedLine: v1 → v2 → v3, then v1 is linked to a
// second successor w, another line's second version, with raw
// setNext/setPrev transactions, which the contracts allow. Every version the fork cut off (v2, v3) walks to a
// line that does not contain it, and WalkChain, and with it every
// reader of that line, fails with ErrChainCorrupted instead of
// reporting v1, w as its line. From v1 and w the pointers read one
// consistent line, v1, w, which walks but does not audit as verified:
// w's registry row names another predecessor. The line before the fork, and
// the lines of the rejection and termination flows, audit as verified.
func TestWalkChainRefusesForkedLine(t *testing.T) {
	m, accs := rig(t)
	landlord, tenant := accs[0].Address, accs[1].Address
	svc := NewRentalService(m)
	v1 := deployRental(t, m, landlord)
	line := []ethtypes.Address{v1.Contract.Address}
	for i := 0; i < 2; i++ {
		next, err := svc.Modify(landlord, line[len(line)-1], ModifiedTerms{
			Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
			House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
			Discount: uint256.Zero, Fine: ethtypes.Ether(1),
		})
		if err != nil {
			t.Fatal(err)
		}
		line = append(line, next.Contract.Address)
	}
	for _, start := range line {
		if rep, err := m.AuditChain(landlord, start); err != nil || !rep.ChainVerified {
			t.Fatalf("AuditChain(%s) before the fork: %v, verified %v; want verified", start, err, rep != nil && rep.ChainVerified)
		}
	}
	rejected := deployRental(t, m, landlord).Contract.Address
	svcConfirmAndPay(t, svc, tenant, rejected, 1)
	v2, err := svc.Modify(landlord, rejected, goldenTerms(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.RejectModification(tenant, v2.Contract.Address); err != nil {
		t.Fatal(err)
	}
	ended := deployRental(t, m, landlord).Contract.Address
	svcConfirmAndPay(t, svc, tenant, ended, 1)
	v2, err = svc.Modify(landlord, ended, goldenTerms(2))
	if err == nil {
		err = svc.ConfirmModification(tenant, v2.Contract.Address)
	}
	if err == nil {
		err = svc.Terminate(tenant, v2.Contract.Address)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, start := range []ethtypes.Address{rejected, ended} {
		if rep, err := m.AuditChain(landlord, start); err != nil || !rep.ChainVerified || len(rep.Versions) != 2 {
			t.Errorf("AuditChain(%s) of a settled line: %v; want 2 verified versions", start, err)
		}
	}
	// w is the second version of another line, so that v1, w has
	// increasing versions and consistent pointers once relinked.
	w, err := svc.Modify(landlord, deployRental(t, m, landlord).Contract.Address, goldenTerms(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v1.Contract.Transact(web3.TxOpts{From: landlord}, "setNext", w.Contract.Address); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Contract.Transact(web3.TxOpts{From: landlord}, "setPrev", line[0]); err != nil {
		t.Fatal(err)
	}
	for _, start := range line[1:] {
		if got, err := m.WalkChain(start); !errors.Is(err, ErrChainCorrupted) {
			t.Errorf("WalkChain(%s) = %d versions, %v; want ErrChainCorrupted", start, len(got), err)
		}
		if _, err := m.AuditChain(landlord, start); !errors.Is(err, ErrChainCorrupted) {
			t.Errorf("AuditChain(%s): %v, want ErrChainCorrupted", start, err)
		}
		if _, err := svc.RentHistory(tenant, start); !errors.Is(err, ErrChainCorrupted) {
			t.Errorf("RentHistory(%s): %v, want ErrChainCorrupted", start, err)
		}
	}
	for _, start := range []ethtypes.Address{line[0], w.Contract.Address} {
		got, err := m.WalkChain(start)
		if err != nil || len(got) != 2 || got[0].Address != line[0] || got[1].Address != w.Contract.Address {
			t.Errorf("WalkChain(%s) = %v, %v; want v1, w", start, got, err)
		}
		if rep, err := m.AuditChain(landlord, start); err != nil || rep.ChainVerified {
			t.Errorf("AuditChain(%s) of the relinked line: %v, verified %v; want not verified", start, err, rep != nil && rep.ChainVerified)
		}
	}
}

// TestLifecycleTransactionCounts pins the transactions of one Fig. 4
// lifecycle once DataStorage exists, as the repository benchmark runs
// it: deploy 1, confirm 1, two payments 2, modify 5 (snapshot, deploy,
// two links, namespace adoption), confirm the modification 2 (the
// predecessor ends, the successor starts), terminate 1. The snapshot is
// one setValues transaction whatever the number of keys, its fields read
// from storage: a modification sends no eth_call to the node (the
// guard runs on a fork of the head view). With a payment notary, a
// modification also wires it into the new version: 6.
func TestLifecycleTransactionCounts(t *testing.T) {
	m, accs, node := countingRig(t)
	landlord, tenant := accs[0].Address, accs[1].Address
	svc := NewRentalService(m)
	terms := ModifiedTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: uint256.Zero, Fine: ethtypes.Ether(1),
	}
	if _, err := m.EnsureDataStorage(landlord); err != nil {
		t.Fatal(err)
	}
	start := node.sends
	v1 := deployRental(t, m, landlord).Contract.Address
	svcConfirmAndPay(t, svc, tenant, v1, 2)
	before, calls := node.sends, node.calls
	v2, err := svc.Modify(landlord, v1, terms)
	if err != nil {
		t.Fatal(err)
	}
	if got := node.sends - before; got != 5 {
		t.Errorf("Modify sent %d transactions, want 5", got)
	}
	if got := node.calls - calls; got != 0 {
		t.Errorf("Modify sent %d eth_calls, want 0", got)
	}
	if err := svc.ConfirmModification(tenant, v2.Contract.Address); err != nil {
		t.Fatal(err)
	}
	if err := svc.Terminate(tenant, v2.Contract.Address); err != nil {
		t.Fatal(err)
	}
	if got := node.sends - start; got != 12 {
		t.Errorf("a lifecycle sent %d transactions, want 12", got)
	}

	if _, err := m.EnsureNotary(landlord); err != nil {
		t.Fatal(err)
	}
	v3 := deployRental(t, m, landlord).Contract.Address
	svcConfirmAndPay(t, svc, tenant, v3, 1)
	before = node.sends
	if _, err := svc.Modify(landlord, v3, terms); err != nil {
		t.Fatal(err)
	}
	if got := node.sends - before; got != 6 {
		t.Errorf("Modify with a notary sent %d transactions, want 6", got)
	}
}

// TestSnapshotContractIsAtomic: a snapshot whose second key is no
// public field fails before anything is written, so the namespace does not
// keep the first key's value.
func TestSnapshotContractIsAtomic(t *testing.T) {
	m, accs := rig(t)
	landlord := accs[0].Address
	dep := deployRental(t, m, landlord)
	ds, err := m.EnsureDataStorage(landlord)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SnapshotContract(landlord, dep.Contract.Address, []string{"rent", "nosuch"}); err == nil {
		t.Fatal("unknown field accepted")
	}
	if n, err := ds.CallUint(landlord, "keyCount", dep.Contract.Address); err != nil || !n.IsZero() {
		t.Fatalf("keyCount after a failed snapshot = %v (%v), want 0", n, err)
	}
	if _, err := m.SnapshotContract(landlord, dep.Contract.Address, []string{"rent", "house"}); err != nil {
		t.Fatal(err)
	}
	snap, err := m.LoadSnapshot(landlord, dep.Contract.Address)
	if err != nil || len(snap) != 2 || snap["rent"] != ethtypes.Ether(1).String() || snap["house"] != "10115-Berlin-42" {
		t.Fatalf("snapshot = %v (%v)", snap, err)
	}
}

// TestSnapshotContractRejectsBadKeys covers the error paths of the
// snapshot helper.
func TestSnapshotContractRejectsBadKeys(t *testing.T) {
	m, accs := rig(t)
	landlord := accs[0].Address
	dep := deployRental(t, m, landlord)
	// Unknown field.
	if _, err := m.SnapshotContract(landlord, dep.Contract.Address, []string{"nosuch"}); !errors.Is(err, ErrNoField) {
		t.Fatalf("unknown field: %v, want ErrNoField", err)
	}
	// A public array (its getter takes an index) is no plain field.
	if _, err := m.SnapshotContract(landlord, dep.Contract.Address, []string{"paidrents"}); !errors.Is(err, ErrNoField) {
		t.Fatalf("array field: %v, want ErrNoField", err)
	}
}

// TestNotaryRoutedPayRent exercises the evidence loop through the
// manager: once a notary exists, freshly deployed versions get their
// paymentProxy wired automatically, PayRent routes through the notary,
// and the DataStorage ledger records the payment in the same tx.
func TestNotaryRoutedPayRent(t *testing.T) {
	m, accs := rig(t)
	landlord, tenant := accs[0].Address, accs[2].Address
	svc := NewRentalService(m)

	notary, err := m.EnsureNotary(landlord)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := m.EnsureNotary(landlord); again.Address != notary.Address {
		t.Fatal("EnsureNotary is not idempotent")
	}

	dep := deployRental(t, m, landlord)
	if err := svc.Confirm(tenant, dep.Contract.Address); err != nil {
		t.Fatal(err)
	}

	// DeployVersion wired the proxy on chain.
	proxy, err := dep.Contract.CallAddress(tenant, "paymentProxy")
	if err != nil {
		t.Fatal(err)
	}
	if proxy != notary.Address {
		t.Fatalf("paymentProxy = %s, want the notary %s", proxy.Hex(), notary.Address.Hex())
	}

	rcpt, err := svc.PayRent(tenant, dep.Contract.Address)
	if err != nil {
		t.Fatal(err)
	}
	// The payment went through the notary, not straight to the rental.
	if rcpt.To == nil || *rcpt.To != notary.Address {
		t.Fatalf("payment tx to = %v, want the notary", rcpt.To)
	}

	// Evidence in the data tier, keyed by the rental version.
	ds := m.Client.Bind(m.DataStorageAddress(), contracts.MustArtifact("DataStorage").ABI)
	cnt, err := ds.CallUint(tenant, "paymentCount", dep.Contract.Address)
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Uint64() != 1 {
		t.Fatalf("paymentCount = %s", cnt)
	}
	amt, _ := ds.CallUint(tenant, "paymentAmount", dep.Contract.Address, uint64(0))
	if amt != ethtypes.Ether(1) {
		t.Fatalf("paymentAmount = %s", ethtypes.FormatEther(amt))
	}

	// And the rental's own history still advanced, naming the tenant.
	if n, _ := dep.Contract.CallUint(tenant, "monthCounter"); n.Uint64() != 1 {
		t.Fatalf("monthCounter = %s", n)
	}

	// The upgraded version inherits the wiring through ModifyContract.
	dep2, err := svc.Modify(landlord, dep.Contract.Address, ModifiedTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: uint256.NewUint64(100), Fine: ethtypes.Ether(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy2, err := dep2.Contract.CallAddress(tenant, "paymentProxy")
	if err != nil {
		t.Fatal(err)
	}
	if proxy2 != notary.Address {
		t.Fatalf("v2 paymentProxy = %s", proxy2.Hex())
	}
}

// TestNewManagerBindsRecordedSharedContracts: a manager opened over the
// docstore another one wrote binds the same DataStorage and notary, so
// its reads see the data written before and its writes deploy nothing.
func TestNewManagerBindsRecordedSharedContracts(t *testing.T) {
	m, accs := rig(t)
	landlord := accs[0].Address
	v1 := deployRental(t, m, landlord).Contract.Address
	if _, err := m.SetValue(landlord, v1, "clause.pets", "allowed"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.EnsureNotary(landlord); err != nil {
		t.Fatal(err)
	}

	again := NewManager(m.Client, m.IPFS, m.Store)
	if again.DataStorageAddress() != m.DataStorageAddress() || again.NotaryAddress() != m.NotaryAddress() {
		t.Fatalf("reopened manager binds DataStorage %s and notary %s, want %s and %s",
			again.DataStorageAddress().Hex(), again.NotaryAddress().Hex(), m.DataStorageAddress().Hex(), m.NotaryAddress().Hex())
	}
	if v, err := again.GetValue(landlord, v1, "clause.pets"); err != nil || v != "allowed" {
		t.Fatalf("GetValue after reopen = %q, %v", v, err)
	}
	if ds, err := again.EnsureDataStorage(landlord); err != nil || ds.Address != m.DataStorageAddress() {
		t.Fatalf("EnsureDataStorage after reopen = %v, %v; want the recorded contract", ds, err)
	}
}

// TestLandlordsShareOneDataStorage: on one manager (one node serving
// every landlord) the first writer deploys DataStorage and owns it, yet
// every landlord modifies, has a rejection recorded and seals a
// history. A manager reopened over the same docstore knows the owner
// only from the chain; there the non-owner writes first.
func TestLandlordsShareOneDataStorage(t *testing.T) {
	m, accs := rig(t)
	tenant := accs[2].Address
	degraded, err := minisol.CompileContract(degradedSrc, "Degraded")
	if err != nil {
		t.Fatal(err)
	}
	terms := ModifiedTerms{Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12, House: "10115-Berlin-42"}
	exercise := func(m *Manager, landlord ethtypes.Address) {
		t.Helper()
		svc := NewRentalService(m)
		v1 := deployRental(t, m, landlord).Contract.Address
		svcConfirmAndPay(t, svc, tenant, v1, 1)
		v2, err := svc.Modify(landlord, v1, terms)
		if err != nil {
			t.Fatalf("landlord %s: Modify: %v", landlord.Hex(), err)
		}
		expectRejection(t, m, landlord, v2.Contract.Address, degraded, ModifyOptions{}, ethtypes.Ether(1))
		if rejs, err := m.Rejections(landlord, v2.Contract.Address); err != nil || len(rejs) != 1 {
			t.Fatalf("landlord %s: rejections %v, %v", landlord.Hex(), rejs, err)
		}
		if _, err := svc.SealHistory(landlord, v1); err != nil {
			t.Fatalf("landlord %s: SealHistory: %v", landlord.Hex(), err)
		}
		if err := svc.VerifyHistory(v1); err != nil {
			t.Fatalf("landlord %s: VerifyHistory: %v", landlord.Hex(), err)
		}
	}
	exercise(m, accs[0].Address)
	exercise(m, accs[1].Address)

	again := NewManager(m.Client, m.IPFS, m.Store)
	exercise(again, accs[1].Address)
	exercise(again, accs[0].Address)
	if again.DataStorageAddress() != m.DataStorageAddress() {
		t.Fatalf("reopened manager deployed DataStorage %s, want %s", again.DataStorageAddress().Hex(), m.DataStorageAddress().Hex())
	}
}
