package legalchain_test

// One benchmark per table and figure of the paper (see DESIGN.md §4 and
// EXPERIMENTS.md), plus the A1–A3 ablations. The paper's evaluation is a
// qualitative case study, so each bench regenerates the corresponding
// artifact's behaviour and reports the quantitative shape (latency via
// ns/op, gas via the gas/op metric).

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"legalchain/internal/contracts"
	"legalchain/internal/core"
	"legalchain/internal/ethtypes"
	"legalchain/internal/ipfs"
	"legalchain/internal/minisol"
	"legalchain/internal/uint256"
	"legalchain/internal/web3"
)

// --- Table I ---------------------------------------------------------------

// BenchmarkTableI_StackReport regenerates the technology table (the
// mapping is printed by `legalctl stack`); here we verify all nine
// substrate roles are actually live by touching each through the rig.
func BenchmarkTableI_StackReport(b *testing.B) {
	r := newRig(b)
	dep := r.deployV1(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Solidity role: compiled artifact present.
		if _, err := contracts.Artifact("BaseRental"); err != nil {
			b.Fatal(err)
		}
		// EVM+chain role: a state read.
		r.BC.GetBalance(r.Landlord)
		// web3 role: a call.
		if _, err := dep.Contract.CallUint(r.Landlord, "rent"); err != nil {
			b.Fatal(err)
		}
		// IPFS role: ABI resolution.
		if _, err := r.Manager.ResolveABI(dep.Contract.Address); err != nil {
			b.Fatal(err)
		}
		// MySQL role: registry row.
		if _, err := r.Manager.GetRow(dep.Contract.Address); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 1: four-tier architecture -----------------------------------------

// BenchmarkFig1_TierRoundtrip measures one presentation-tier request
// that traverses all four tiers: HTTP -> app -> manager -> docstore +
// chain (dashboard build with live chain enrichment).
func BenchmarkFig1_TierRoundtrip(b *testing.B) {
	r := newRig(b)
	u, err := r.App.Register("bench_landlord", "l@x.io", "pw")
	if err != nil {
		b.Fatal(err)
	}
	r.deployV1(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := r.App.Dashboard(u)
		if err != nil || len(rows) == 0 {
			b.Fatalf("dashboard: %v", err)
		}
	}
}

// --- Fig. 2: version linked list --------------------------------------------

// BenchmarkFig2_VersionChainWalk walks (and verifies) evidence lines of
// increasing length k, from the middle node. Latency grows linearly in
// k — the cost of evidence reconstruction.
func BenchmarkFig2_VersionChainWalk(b *testing.B) {
	for _, k := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("versions=%d", k), func(b *testing.B) {
			r := newRig(b)
			deps := r.buildChainOfVersions(b, k)
			start := deps[len(deps)/2].Contract.Address
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				chainInfo, err := r.Manager.WalkChain(start)
				if err != nil {
					b.Fatal(err)
				}
				if len(chainInfo) != k {
					b.Fatalf("chain length %d", len(chainInfo))
				}
				if err := core.VerifyChain(chainInfo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 3: data storage / migration ----------------------------------------

// BenchmarkFig3_DataMigration measures migrating N key/value pairs from
// one version's namespace to the next through the DataStorage contract.
// gas/op is the on-chain cost; it grows linearly in N.
func BenchmarkFig3_DataMigration(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("pairs=%d", n), func(b *testing.B) {
			r := newRig(b)
			src := ethtypes.HexToAddress("0x00000000000000000000000000000000000000a1")
			for i := 0; i < n; i++ {
				if _, err := r.Manager.SetValue(r.Landlord, src, fmt.Sprintf("key-%03d", i), fmt.Sprintf("value-%03d", i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var gas uint64
			for i := 0; i < b.N; i++ {
				dst := ethtypes.BytesToAddress([]byte(fmt.Sprintf("dst-%d", i)))
				count, g, err := r.Manager.MigrateData(r.Landlord, src, dst)
				if err != nil || count != n {
					b.Fatalf("migrated %d, %v", count, err)
				}
				gas += g
			}
			b.ReportMetric(float64(gas)/float64(b.N), "gas/op")
		})
	}
}

// --- Fig. 4: lifecycle sequence ----------------------------------------------

// BenchmarkFig4_LifecycleSequence runs the full sequence diagram:
// deploy -> confirm(+deposit) -> 12x payRent -> terminate, reporting the
// total gas per complete lifecycle.
func BenchmarkFig4_LifecycleSequence(b *testing.B) {
	r := newRig(b)
	b.ResetTimer()
	var gas uint64
	for i := 0; i < b.N; i++ {
		dep := r.deployV1(b)
		gas += dep.GasUsed
		if err := r.Rental.Confirm(r.Tenant, dep.Contract.Address); err != nil {
			b.Fatal(err)
		}
		for m := 0; m < 12; m++ {
			rcpt, err := r.Rental.PayRent(r.Tenant, dep.Contract.Address)
			if err != nil {
				b.Fatal(err)
			}
			gas += rcpt.GasUsed
		}
		if err := r.Rental.Terminate(r.Tenant, dep.Contract.Address); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(gas)/float64(b.N), "gas/lifecycle")
}

// --- Fig. 5: base contract operations ----------------------------------------

// BenchmarkFig5_BaseRentalOps measures each function of the Fig. 5 base
// contract separately (sub-benchmark per method) with its gas cost.
func BenchmarkFig5_BaseRentalOps(b *testing.B) {
	art := contracts.MustArtifact("BaseRental")
	b.Run("compile", func(b *testing.B) {
		src := contracts.Sources()["BaseRental"]
		for i := 0; i < b.N; i++ {
			if _, err := minisol.Compile(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("deploy", func(b *testing.B) {
		r := newRig(b)
		var gas uint64
		for i := 0; i < b.N; i++ {
			_, rcpt, err := r.Client.Deploy(web3.TxOpts{From: r.Landlord}, art.ABI, art.Bytecode,
				ethtypes.Ether(1), ethtypes.Ether(2), uint64(12), "10115-Berlin-42")
			if err != nil {
				b.Fatal(err)
			}
			gas += rcpt.GasUsed
		}
		b.ReportMetric(float64(gas)/float64(b.N), "gas/op")
		b.ReportMetric(float64(len(art.Runtime)), "runtime-bytes")
	})
	b.Run("payRent", func(b *testing.B) {
		r := newRig(b)
		dep := r.deployV1(b)
		if err := r.Rental.Confirm(r.Tenant, dep.Contract.Address); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var gas uint64
		for i := 0; i < b.N; i++ {
			rcpt, err := dep.Contract.Transact(web3.TxOpts{From: r.Tenant, Value: ethtypes.Ether(1)}, "payRent")
			if err != nil {
				b.Fatal(err)
			}
			gas += rcpt.GasUsed
		}
		b.ReportMetric(float64(gas)/float64(b.N), "gas/op")
	})
	b.Run("getters", func(b *testing.B) {
		r := newRig(b)
		dep := r.deployV1(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dep.Contract.CallUint(r.Tenant, "rent"); err != nil {
				b.Fatal(err)
			}
			if _, err := dep.Contract.CallString(r.Tenant, "house"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Fig. 6: upgraded contract -------------------------------------------------

// BenchmarkFig6_UpgradedContractOps exercises the new/updated clauses of
// the modified agreement: discounted payRent and the added
// payMaintenanceFee function.
func BenchmarkFig6_UpgradedContractOps(b *testing.B) {
	r := newRig(b)
	v1 := r.deployV1(b)
	if err := r.Rental.Confirm(r.Tenant, v1.Contract.Address); err != nil {
		b.Fatal(err)
	}
	v2, err := r.Rental.Modify(r.Landlord, v1.Contract.Address, standardTerms())
	if err != nil {
		b.Fatal(err)
	}
	if err := r.Rental.ConfirmModification(r.Tenant, v2.Contract.Address); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var gas uint64
	for i := 0; i < b.N; i++ {
		rcpt, err := r.Rental.PayMaintenance(r.Tenant, v2.Contract.Address)
		if err != nil {
			b.Fatal(err)
		}
		gas += rcpt.GasUsed
		rcpt2, err := r.Rental.PayRent(r.Tenant, v2.Contract.Address)
		if err != nil {
			b.Fatal(err)
		}
		gas += rcpt2.GasUsed
	}
	b.ReportMetric(float64(gas)/float64(b.N), "gas/op")
}

// --- Fig. 7: dashboard ----------------------------------------------------------

// BenchmarkFig7_DashboardRender measures the full HTTP dashboard page
// (template render included) for a user with several contracts.
func BenchmarkFig7_DashboardRender(b *testing.B) {
	r := newRig(b)
	if _, err := r.App.Register("dash_user", "d@x.io", "pw"); err != nil {
		b.Fatal(err)
	}
	token, err := r.App.Login("dash_user", "pw")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r.deployV1(b)
	}
	srv := httptest.NewServer(r.App.Handler())
	b.Cleanup(srv.Close)
	req := func() string {
		resp, err := srv.Client().Get(srv.URL + "/dashboard")
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		buf := new(strings.Builder)
		if _, err := fmt.Fprint(buf, resp.Status); err != nil {
			b.Fatal(err)
		}
		return buf.String()
	}
	_ = req
	client := srv.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		httpReq, _ := httpNewRequest("GET", srv.URL+"/dashboard", token)
		resp, err := client.Do(httpReq)
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// --- Fig. 8: deploy + transact snippet -------------------------------------------

// BenchmarkFig8_DeployTransact reproduces the paper's code snippet: the
// web3-layer path of deploying a contract and executing a transaction on
// it, end to end.
func BenchmarkFig8_DeployTransact(b *testing.B) {
	r := newRig(b)
	art := contracts.MustArtifact("DataStorage")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bound, _, err := r.Client.Deploy(web3.TxOpts{From: r.Landlord}, art.ABI, art.Bytecode)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bound.Transact(web3.TxOpts{From: r.Landlord}, "setValue",
			bound.Address, "key", "value"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 11: modify flow ----------------------------------------------------------

// BenchmarkModifyContract measures one complete modification (Fig. 11):
// snapshot the old version's fields in one setValues transaction,
// deploy the new version, link both pointers, adopt the namespace and
// write the registry row — the paper's core operation. It reports the
// gas and the transactions each modification sends (all from the
// landlord, so the landlord's nonce counts them).
func BenchmarkModifyContract(b *testing.B) {
	r := newRig(b)
	v1 := r.deployV1(b)
	if err := r.Rental.Confirm(r.Tenant, v1.Contract.Address); err != nil {
		b.Fatal(err)
	}
	if _, err := r.Manager.EnsureDataStorage(r.Landlord); err != nil {
		b.Fatal(err)
	}
	prev := v1.Contract.Address
	nonce := r.BC.GetNonce(r.Landlord)
	b.ResetTimer()
	var gas uint64
	for i := 0; i < b.N; i++ {
		dep, err := r.Rental.Modify(r.Landlord, prev, standardTerms())
		if err != nil {
			b.Fatal(err)
		}
		gas += dep.GasUsed
		prev = dep.Contract.Address
	}
	b.ReportMetric(float64(gas)/float64(b.N), "gas/op")
	b.ReportMetric(float64(r.BC.GetNonce(r.Landlord)-nonce)/float64(b.N), "txs/op")
}

// --- A1: upgrade-pattern ablation ---------------------------------------------------

// counterSrc is the state-bearing contract used to compare upgrade
// mechanisms fairly: one word of persistent state, one mutator.
const counterSrc = `
contract Counter {
	uint public count;
	address public next;
	address public previous;
	function increment() public { count += 1; }
	function getNext() public view returns (address a) { return next; }
	function getPrev() public view returns (address a) { return previous; }
	function setNext(address _n) public { next = _n; }
	function setPrev(address _p) public { previous = _p; }
}`

// BenchmarkA1_UpgradePatterns compares the gas of ONE upgrade under the
// three mechanisms, with s prior state entries to carry:
//
//   - linked-list (the paper): deploy new + 2 pointer writes + migrate s
//     key/value pairs through DataStorage;
//   - proxy (OpenZeppelin baseline): deploy new implementation + one
//     upgradeTo — state stays in the proxy, nothing to migrate;
//   - naive redeploy: deploy new + replay the s state-building
//     transactions against it.
//
// Expected shape: proxy is cheapest and flat in s; linked-list is linear
// in s but keeps every version alive as evidence; naive is linear with
// the steepest slope and loses the old history entirely.
func BenchmarkA1_UpgradePatterns(b *testing.B) {
	counterArt, err := minisol.CompileContract(counterSrc, "Counter")
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []int{0, 8, 32} {
		b.Run(fmt.Sprintf("linkedlist/state=%d", s), func(b *testing.B) {
			r := newRig(b)
			dep, err := r.Manager.DeployVersion(r.Landlord, counterArt, nil)
			if err != nil {
				b.Fatal(err)
			}
			prev := dep.Contract
			for i := 0; i < s; i++ {
				if _, err := r.Manager.SetValue(r.Landlord, prev.Address, fmt.Sprintf("k%d", i), "v"); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var gas uint64
			for i := 0; i < b.N; i++ {
				next, rcpt, err := r.Client.Deploy(web3.TxOpts{From: r.Landlord}, counterArt.ABI, counterArt.Bytecode)
				if err != nil {
					b.Fatal(err)
				}
				gas += rcpt.GasUsed
				r1, err := prev.Transact(web3.TxOpts{From: r.Landlord}, "setNext", next.Address)
				if err != nil {
					b.Fatal(err)
				}
				r2, err := next.Transact(web3.TxOpts{From: r.Landlord}, "setPrev", prev.Address)
				if err != nil {
					b.Fatal(err)
				}
				gas += r1.GasUsed + r2.GasUsed
				_, mg, err := r.Manager.MigrateData(r.Landlord, prev.Address, next.Address)
				if err != nil {
					b.Fatal(err)
				}
				gas += mg
				prev = next
			}
			b.ReportMetric(float64(gas)/float64(b.N), "gas/upgrade")
		})
		b.Run(fmt.Sprintf("proxy/state=%d", s), func(b *testing.B) {
			r := newRig(b)
			impl, _, err := r.Client.Deploy(web3.TxOpts{From: r.Landlord}, counterArt.ABI, counterArt.Bytecode)
			if err != nil {
				b.Fatal(err)
			}
			emptyABI := contracts.ProxyABI()
			proxy, _, err := r.Client.Deploy(web3.TxOpts{From: r.Landlord, GasLimit: 500_000},
				emptyABI, contracts.PackProxyDeploy(impl.Address))
			if err != nil {
				b.Fatal(err)
			}
			// Build s entries of state inside the proxy.
			proxied := r.Client.Bind(proxy.Address, counterArt.ABI)
			for i := 0; i < s; i++ {
				if _, err := proxied.Transact(web3.TxOpts{From: r.Landlord, GasLimit: 300_000}, "increment"); err != nil {
					b.Fatal(err)
				}
			}
			mgmt := r.Client.Bind(proxy.Address, contracts.ProxyABI())
			b.ResetTimer()
			var gas uint64
			for i := 0; i < b.N; i++ {
				newImpl, rcpt, err := r.Client.Deploy(web3.TxOpts{From: r.Landlord}, counterArt.ABI, counterArt.Bytecode)
				if err != nil {
					b.Fatal(err)
				}
				gas += rcpt.GasUsed
				r1, err := mgmt.Transact(web3.TxOpts{From: r.Landlord, GasLimit: 100_000}, "upgradeTo", newImpl.Address)
				if err != nil {
					b.Fatal(err)
				}
				gas += r1.GasUsed
			}
			b.ReportMetric(float64(gas)/float64(b.N), "gas/upgrade")
		})
		b.Run(fmt.Sprintf("redeploy/state=%d", s), func(b *testing.B) {
			r := newRig(b)
			b.ResetTimer()
			var gas uint64
			for i := 0; i < b.N; i++ {
				next, rcpt, err := r.Client.Deploy(web3.TxOpts{From: r.Landlord}, counterArt.ABI, counterArt.Bytecode)
				if err != nil {
					b.Fatal(err)
				}
				gas += rcpt.GasUsed
				// Replay the state-building transactions.
				for j := 0; j < s; j++ {
					r1, err := next.Transact(web3.TxOpts{From: r.Landlord}, "increment")
					if err != nil {
						b.Fatal(err)
					}
					gas += r1.GasUsed
				}
			}
			b.ReportMetric(float64(gas)/float64(b.N), "gas/upgrade")
		})
	}
}

// --- A2: data-separation ablation -----------------------------------------------------

// BenchmarkA2_DataSeparation compares carrying N data items across an
// upgrade with and without the DataStorage separation: with separation
// the data is already in the shared contract (zero marginal migration
// when the new version reads the OLD namespace, as the paper suggests);
// without it the manager must copy all N pairs.
func BenchmarkA2_DataSeparation(b *testing.B) {
	for _, n := range []int{8, 32} {
		b.Run(fmt.Sprintf("shared-namespace/items=%d", n), func(b *testing.B) {
			r := newRig(b)
			old := ethtypes.HexToAddress("0x00000000000000000000000000000000000000b1")
			for i := 0; i < n; i++ {
				if _, err := r.Manager.SetValue(r.Landlord, old, fmt.Sprintf("k%d", i), "v"); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// New version reads its predecessor's namespace directly:
				// only reads, no migration writes.
				snap, err := r.Manager.LoadSnapshot(r.Landlord, old)
				if err != nil || len(snap) != n {
					b.Fatalf("snapshot %d, %v", len(snap), err)
				}
			}
			b.ReportMetric(0, "gas/op") // reads are free
		})
		b.Run(fmt.Sprintf("copied-namespace/items=%d", n), func(b *testing.B) {
			r := newRig(b)
			old := ethtypes.HexToAddress("0x00000000000000000000000000000000000000b2")
			for i := 0; i < n; i++ {
				if _, err := r.Manager.SetValue(r.Landlord, old, fmt.Sprintf("k%d", i), "v"); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var gas uint64
			for i := 0; i < b.N; i++ {
				dst := ethtypes.BytesToAddress([]byte(fmt.Sprintf("a2-%d", i)))
				_, g, err := r.Manager.MigrateData(r.Landlord, old, dst)
				if err != nil {
					b.Fatal(err)
				}
				gas += g
			}
			b.ReportMetric(float64(gas)/float64(b.N), "gas/op")
		})
	}
}

// --- A3: ABI resolution ----------------------------------------------------------------

// BenchmarkA3_ABIResolution measures reconstructing a binding from an
// address via the content store, cold (fresh manager cache) vs cached.
func BenchmarkA3_ABIResolution(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		r := newRig(b)
		dep := r.deployV1(b)
		if _, err := r.Manager.IPFS.Blobs.Get(ipfs.CID(dep.Row.ABICID)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Fresh manager each time: no ABI cache.
			m2 := core.NewManager(r.Client, r.Manager.IPFS, r.Manager.Store)
			if _, err := m2.BindVersion(dep.Contract.Address); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		r := newRig(b)
		dep := r.deployV1(b)
		if _, err := r.Manager.BindVersion(dep.Contract.Address); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Manager.BindVersion(dep.Contract.Address); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("chain-walk-resolve", func(b *testing.B) {
		r := newRig(b)
		deps := r.buildChainOfVersions(b, 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m2 := core.NewManager(r.Client, r.Manager.IPFS, r.Manager.Store)
			if _, err := m2.WalkChain(deps[0].Contract.Address); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- misc helpers -------------------------------------------------------------------------

// httpNewRequest builds an authenticated request with the app's session
// cookie.
func httpNewRequest(method, url, token string) (*http.Request, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return nil, err
	}
	req.AddCookie(&http.Cookie{Name: "legalchain_session", Value: token})
	return req, nil
}

var _ = uint256.Zero
