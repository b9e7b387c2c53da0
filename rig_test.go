package legalchain_test

// Shared test/bench rig: the full four-tier stack assembled in process,
// used by the per-figure experiments in bench_test.go and
// experiments_test.go.

import (
	"testing"

	"legalchain/internal/app"
	"legalchain/internal/chain"
	"legalchain/internal/core"
	"legalchain/internal/docstore"
	"legalchain/internal/ethtypes"
	"legalchain/internal/ipfs"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
	"legalchain/internal/web3"
)

// rig is one fully wired stack instance.
type rig struct {
	BC       *chain.Blockchain
	Client   *web3.Client
	Manager  *core.Manager
	Rental   *core.RentalService
	App      *app.App
	Landlord ethtypes.Address
	Tenant   ethtypes.Address
	Third    ethtypes.Address
	Faucet   ethtypes.Address
}

// tb is the subset of testing.TB the rig needs (both *testing.T and
// *testing.B satisfy it).
type tb interface {
	Helper()
	Fatal(args ...interface{})
	Fatalf(format string, args ...interface{})
	Cleanup(func())
}

func newRig(t tb) *rig {
	t.Helper()
	accs := wallet.DevAccounts("experiments", 4)
	g := chain.DefaultGenesis()
	g.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(1_000_000))
	bc := chain.New(g)
	ks := wallet.NewKeystore()
	for _, a := range accs {
		ks.Import(a.Key)
	}
	client, err := web3.NewClient(web3.NewLocalBackend(bc), ks)
	if err != nil {
		t.Fatal(err)
	}
	store, err := docstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	m := core.NewManager(client, ipfs.NewNode(ipfs.NewMemStore()), store)
	a := app.New(m)
	a.Faucet = accs[3].Address
	return &rig{
		BC: bc, Client: client, Manager: m,
		Rental: core.NewRentalService(m), App: a,
		Landlord: accs[0].Address, Tenant: accs[1].Address,
		Third: accs[2].Address, Faucet: accs[3].Address,
	}
}

// deployV1 deploys a standard BaseRental and returns the deployment.
func (r *rig) deployV1(t tb) *core.Deployment {
	t.Helper()
	dep, err := r.Rental.DeployRental(r.Landlord, core.RentalTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", LegalDoc: []byte("%PDF-1.4 agreement"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// standardTerms are the V2 terms used throughout the experiments.
func standardTerms() core.ModifiedTerms {
	return core.ModifiedTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(1),
		Discount: uint256.Zero, Fine: ethtypes.Ether(1),
	}
}

// buildChainOfVersions deploys v1 and extends it with k-1 modifications,
// returning the deployments in order.
// describe reads a version's registry row with its state, tenant and
// next pointer derived from the chain.
func (r *rig) describe(t tb, addr ethtypes.Address) core.ContractRow {
	row, err := r.Manager.GetRow(addr)
	if err == nil {
		row, err = r.Manager.Describe(row, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	return row
}

func (r *rig) buildChainOfVersions(t tb, k int) []*core.Deployment {
	t.Helper()
	deps := make([]*core.Deployment, 0, k)
	v1 := r.deployV1(t)
	deps = append(deps, v1)
	prev := v1.Contract.Address
	for i := 1; i < k; i++ {
		dep, err := r.Rental.Modify(r.Landlord, prev, standardTerms())
		if err != nil {
			t.Fatal(err)
		}
		deps = append(deps, dep)
		prev = dep.Contract.Address
	}
	return deps
}

var _ = testing.Short // keep the testing import stable
