// Consent: the paper's future-work directions, implemented. Section V
// asks for (1) versioning where "the already executed part of the
// contract will not be able to change" and (2) "introducing trust to the
// system". This example drives both extensions:
//
//   - before a modification, the manager seals a keccak commitment over
//     the predecessor's executed payments into the DataStorage contract;
//     any later tampering with the claimed history is detectable;
//
//   - the modification only proceeds with the tenant's ECDSA-signed
//     consent, verified against the tenant address the immutable old
//     contract records on chain.
//
//     go run ./examples/consent
package main

import (
	"errors"
	"fmt"
	"log"

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
	accounts := wallet.DevAccounts("consent", 3)
	landlord, tenant, mallory := accounts[0], accounts[1], accounts[2]
	genesis := chain.DefaultGenesis()
	genesis.Alloc = wallet.DevAlloc(accounts, ethtypes.Ether(500))
	bc := chain.New(genesis)
	keys := wallet.NewKeystore()
	for _, a := range accounts {
		keys.Import(a.Key)
	}
	client, err := web3.NewClient(web3.NewLocalBackend(bc), keys)
	must(err)
	store, err := docstore.Open("")
	must(err)
	defer store.Close()
	manager := core.NewManager(client, ipfs.NewNode(ipfs.NewMemStore()), store)
	rentals := core.NewRentalService(manager)

	// Live agreement with three paid months.
	v1, err := rentals.DeployRental(landlord.Address, core.RentalTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42",
	})
	must(err)
	must(rentals.Confirm(tenant.Address, v1.Contract.Address))
	for i := 0; i < 3; i++ {
		_, err := rentals.PayRent(tenant.Address, v1.Contract.Address)
		must(err)
	}
	fmt.Println("v1 deployed, confirmed, 3 months paid")

	terms := core.ModifiedTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: uint256.Zero, Fine: ethtypes.Ether(1),
	}

	// 1. The tenant consents: modification succeeds, history sealed.
	v2, err := rentals.ModifyWithConsent(landlord.Address, v1.Contract.Address, terms,
		func(newAddr ethtypes.Address) ([]byte, error) {
			fmt.Printf("tenant signs consent for new version %s\n", newAddr)
			return core.SignConsent(keys, tenant.Address, v1.Contract.Address, newAddr)
		})
	must(err)
	fmt.Printf("modification consented and deployed: v2 = %s\n", v2.Contract.Address)

	// The sealed history of v1 verifies.
	must(rentals.VerifyHistory(v1.Contract.Address))
	fmt.Println("v1 executed history verifies against its sealed commitment")

	// v2 adopted v1's data namespace, but not its commitment: nothing of
	// v2 has been sealed yet.
	if err := rentals.VerifyHistory(v2.Contract.Address); errors.Is(err, core.ErrNoCommitment) {
		fmt.Println("v2 has no sealed commitment of its own: v1's seal is not inherited")
	} else {
		log.Fatalf("expected no commitment for v2, got %v", err)
	}

	// The tenant confirms v2 so it records them on chain.
	must(rentals.ConfirmModification(tenant.Address, v2.Contract.Address))

	// 2. Mallory forges consent for a further modification: rejected.
	_, err = rentals.ModifyWithConsent(landlord.Address, v2.Contract.Address, terms,
		func(newAddr ethtypes.Address) ([]byte, error) {
			fmt.Println("mallory forges a consent signature...")
			return core.SignConsent(keys, mallory.Address, v2.Contract.Address, newAddr)
		})
	if errors.Is(err, core.ErrBadConsent) {
		fmt.Println("forged consent rejected: the signature does not recover to the on-chain tenant")
	} else {
		log.Fatalf("expected consent rejection, got %v", err)
	}

	// 3. Tampering with the sealed commitment is detected.
	_, err = manager.SetValue(landlord.Address, v1.Contract.Address,
		core.HistoryCommitmentKey, ethtypes.Keccak256([]byte("forged history")).Hex())
	must(err)
	if err := rentals.VerifyHistory(v1.Contract.Address); errors.Is(err, core.ErrHistoryTampered) {
		fmt.Println("tampered commitment detected: evidence line integrity holds")
	} else {
		log.Fatalf("expected tamper detection, got %v", err)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
