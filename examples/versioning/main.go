// Versioning: the paper's central scenario (Figs. 2, 3, 11). A rental
// agreement evolves through three versions; each modification deploys a
// new contract, links it into the on-chain doubly linked list, publishes
// its ABI to the content store, and migrates the key/value data through
// the DataStorage contract. Finally the evidence line is walked from an
// arbitrary member and verified — including a re-binding that uses ONLY
// an address plus the IPFS-resolved ABI.
//
//	go run ./examples/versioning
package main

import (
	"fmt"
	"log"
	"sort"

	"legalchain/internal/chain"
	"legalchain/internal/core"
	"legalchain/internal/docstore"
	"legalchain/internal/ethtypes"
	"legalchain/internal/ipfs"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
	"legalchain/internal/web3"
)

func main() {
	accounts := wallet.DevAccounts("versioning", 2)
	landlord, tenant := accounts[0], accounts[1]
	genesis := chain.DefaultGenesis()
	genesis.Alloc = wallet.DevAlloc(accounts, ethtypes.Ether(500))
	bc := chain.New(genesis)
	keys := wallet.NewKeystore()
	keys.Import(landlord.Key)
	keys.Import(tenant.Key)
	client, err := web3.NewClient(web3.NewLocalBackend(bc), keys)
	must(err)
	store, err := docstore.Open("")
	must(err)
	defer store.Close()
	manager := core.NewManager(client, ipfs.NewNode(ipfs.NewMemStore()), store)
	rentals := core.NewRentalService(manager)

	// v1: the base agreement.
	v1, err := rentals.DeployRental(landlord.Address, core.RentalTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", LegalDoc: []byte("agreement v1"),
	})
	must(err)
	must(rentals.Confirm(tenant.Address, v1.Contract.Address))
	for i := 0; i < 2; i++ {
		_, err := rentals.PayRent(tenant.Address, v1.Contract.Address)
		must(err)
	}
	fmt.Printf("v1 %s — confirmed, 2 months paid\n", v1.Contract.Address)

	// v2: maintenance clause added (unilateral change, negotiated).
	v2, err := rentals.Modify(landlord.Address, v1.Contract.Address, core.ModifiedTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: uint256.Zero, Fine: ethtypes.Ether(1),
		LegalDoc: []byte("agreement v2: + maintenance clause"),
	})
	must(err)
	must(rentals.ConfirmModification(tenant.Address, v2.Contract.Address))
	_, err = rentals.PayRent(tenant.Address, v2.Contract.Address)
	must(err)
	fmt.Printf("v2 %s — maintenance clause, tenant re-confirmed\n", v2.Contract.Address)

	// v3: rent discount clause.
	half := ethtypes.Ether(1).Div(uint256.NewUint64(2))
	v3, err := rentals.Modify(landlord.Address, v2.Contract.Address, core.ModifiedTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: half, Fine: ethtypes.Ether(1),
		LegalDoc: []byte("agreement v3: + loyalty discount"),
	})
	must(err)
	must(rentals.ConfirmModification(tenant.Address, v3.Contract.Address))
	due, err := rentals.RentDue(v3.Contract.Address)
	must(err)
	fmt.Printf("v3 %s — discounted rent due: %s ETH\n", v3.Contract.Address, ethtypes.FormatEther(due))

	// Walk the evidence line starting from the MIDDLE version.
	fmt.Println("\nevidence line (walked from v2, verified):")
	line, err := manager.WalkStates(v2.Contract.Address)
	must(err)
	must(core.VerifyChain(line))
	for _, node := range line {
		fmt.Printf("  v%d  %-10s  %s\n", node.Version, node.State, node.Address)
	}

	// Rebind v1 from its bare address: the ABI comes out of IPFS.
	fmt.Println("\nre-binding v1 from address + IPFS ABI only:")
	bound, err := manager.BindVersion(v1.Contract.Address)
	must(err)
	house, err := bound.CallString(tenant.Address, "house")
	must(err)
	st, err := bound.CallUint(tenant.Address, "state")
	must(err)
	fmt.Printf("  house=%q state=%d (2 = Terminated: superseded versions are closed)\n", house, st.Uint64())

	// The migrated data namespace of v3.
	snapshot, err := manager.LoadSnapshot(landlord.Address, v3.Contract.Address)
	must(err)
	fmt.Println("\nDataStorage namespace of v3 (migrated v2 state):")
	names := make([]string, 0, len(snapshot))
	for k := range snapshot {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-14s = %s\n", k, snapshot[k])
	}

	// Cross-version payment history survives every upgrade.
	history, err := rentals.RentHistory(tenant.Address, v3.Contract.Address)
	must(err)
	fmt.Printf("\nrent history across all versions (%d payments):\n", len(history))
	for _, p := range history {
		fmt.Printf("  version %d, month %d: %s ETH\n", p.Version, p.Month, ethtypes.FormatEther(p.Amount))
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
