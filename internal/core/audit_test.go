package core

import (
	"errors"
	"sync"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/evm"
	"legalchain/internal/ipfs"
	"legalchain/internal/minisol"
	"legalchain/internal/uint256"
	"legalchain/internal/web3"
)

// probeSrc is a linkable version whose shared views cover the outcomes
// an audit must count exactly: views that return, one that reverts from
// the second version on, one that loops past evm.DefaultMaxSteps (and
// ends on the first version; later ones loop longer and run out of gas),
// and one that loops on a storage read until it runs out of gas.
const probeSrc = `
pragma solidity ^0.5.0;

contract Probe {
	uint public n;
	address public next;
	address public previous;

	constructor(uint _n) public { n = _n; }

	function setNext(address _next) public { next = _next; }
	function setPrev(address _previous) public { previous = _previous; }
	function getPrev() public view returns (address addr) { return previous; }
	function getNext() public view returns (address addr) { return next; }

	function refuse() public view returns (uint) { require(n < 2, "too late"); return n; }
	function spin() public view returns (uint) {
		uint i = 0;
		while (i < 10000 * n) { i = i + 1; }
		return i;
	}
	function burn() public view returns (uint) {
		uint i = 0;
		while (n > 0) { i = i + 1; }
		return i;
	}
}
`

// TestAuditStepsMatchStructLogger: on every pair of a three-version
// line, each behaviour delta's gas, steps and revert outcome equal what
// a StructLogger records for the same call on the same head. The steps
// are the interpreter's own count, so a view past the StructLogger's
// cap reports its exact count.
func TestAuditStepsMatchStructLogger(t *testing.T) {
	m, accs := rig(t)
	landlord := accs[0].Address
	art, err := minisol.CompileContract(probeSrc, "Probe")
	if err != nil {
		t.Fatal(err)
	}
	dep, err := m.DeployVersion(landlord, art, nil, uint256.NewUint64(1))
	if err != nil {
		t.Fatal(err)
	}
	head := dep.Contract.Address
	for n := uint64(2); n <= 3; n++ {
		next, err := m.ModifyContract(landlord, head, art, ModifyOptions{}, uint256.NewUint64(n))
		if err != nil {
			t.Fatal(err)
		}
		head = next.Contract.Address
	}
	report, err := m.AuditChain(landlord, head)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Pairs) != 2 {
		t.Fatalf("%d pairs, want 2", len(report.Pairs))
	}

	hv := m.Client.Backend().(web3.HeadViewer).HeadView()
	var reverted, outOfGas, pastCap, deltas int
	oracle := func(addr string, method string) (gas uint64, steps int, reverted bool) {
		to := ethtypes.HexToAddress(addr)
		sel := ethtypes.Keccak256([]byte(method))
		res, tr := hv.TraceCall(landlord, &to, sel[:4], 0)
		for _, c := range tr.OpCount {
			steps += c
		}
		if !tr.Truncated() && len(tr.Logs) != steps {
			t.Fatalf("%s on %s: %d logs, %d counted steps", method, addr, len(tr.Logs), steps)
		}
		if errors.Is(res.Err, evm.ErrOutOfGas) {
			outOfGas++
		}
		if tr.Truncated() && res.Err == nil {
			pastCap++
		}
		return res.GasUsed, steps, res.Err != nil
	}
	for _, p := range report.Pairs {
		for _, d := range p.Behaviour {
			deltas++
			if gas, steps, rev := oracle(p.From, d.Method); d.OldGas != gas || d.OldSteps != steps || d.OldReverted != rev {
				t.Errorf("%s on %s: gas %d steps %d reverted %v; the StructLogger saw %d, %d, %v",
					d.Method, p.From, d.OldGas, d.OldSteps, d.OldReverted, gas, steps, rev)
			}
			if gas, steps, rev := oracle(p.To, d.Method); d.NewGas != gas || d.NewSteps != steps || d.NewReverted != rev {
				t.Errorf("%s on %s: gas %d steps %d reverted %v; the StructLogger saw %d, %d, %v",
					d.Method, p.To, d.NewGas, d.NewSteps, d.NewReverted, gas, steps, rev)
			}
			if d.NewReverted {
				reverted++
			}
		}
	}
	if deltas < 2*6 || reverted == 0 || outOfGas == 0 || pastCap == 0 {
		t.Fatalf("%d deltas, %d reverting, %d out of gas, %d ending past the cap: a case is not covered", deltas, reverted, outOfGas, pastCap)
	}
}

// countingStore counts the fetches of each blob.
type countingStore struct {
	ipfs.Store
	mu   sync.Mutex
	gets map[ipfs.CID]int
}

func (s *countingStore) Get(cid ipfs.CID) ([]byte, error) {
	s.mu.Lock()
	s.gets[cid]++
	s.mu.Unlock()
	return s.Store.Get(cid)
}

// TestColdManagerParsesEachArtifactOnce: a manager that has parsed
// nothing walks an eight-version line and binds every version. Versions
// 2 to 8 publish the same ABI and layout blobs, so the walk's two layout
// fetches and the binds' two ABI fetches serve all eight, and concurrent
// binds of versions 2 to 8 share one parsed ABI.
func TestColdManagerParsesEachArtifactOnce(t *testing.T) {
	m, accs := rig(t)
	landlord, tenant := accs[0].Address, accs[1].Address
	svc := NewRentalService(m)
	line := []ethtypes.Address{deployRental(t, m, landlord).Contract.Address}
	svcConfirmAndPay(t, svc, tenant, line[0], 0)
	for v := 2; v <= 8; v++ {
		next, err := svc.Modify(landlord, line[len(line)-1], ModifiedTerms{
			Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
			House: "10115-Berlin-42", MaintenanceFee: ethtypes.Ether(int64(v)),
			Discount: uint256.Zero, Fine: ethtypes.Ether(1),
		})
		if err != nil {
			t.Fatal(err)
		}
		line = append(line, next.Contract.Address)
	}
	abiCIDs, layoutCIDs := map[ipfs.CID]bool{}, map[ipfs.CID]bool{}
	for _, addr := range line {
		row, err := m.GetRow(addr)
		if err != nil {
			t.Fatal(err)
		}
		abiCIDs[ipfs.CID(row.ABICID)] = true
		layoutCIDs[ipfs.CID(row.LayoutCID)] = true
	}
	if len(abiCIDs) != 2 || len(layoutCIDs) != 2 {
		t.Fatalf("the line publishes %d ABI and %d layout blobs, want 2 of each", len(abiCIDs), len(layoutCIDs))
	}

	blobs := &countingStore{Store: m.IPFS.Blobs, gets: map[ipfs.CID]int{}}
	cold := NewManager(m.Client, ipfs.NewNode(blobs), m.Store)
	walked, err := cold.WalkChain(line[len(line)-1])
	if err != nil || len(walked) != len(line) {
		t.Fatalf("walk: %d versions, %v", len(walked), err)
	}
	for _, v := range walked {
		if _, err := cold.BindVersion(v.Address); err != nil {
			t.Fatal(err)
		}
	}
	for what, cids := range map[string]map[ipfs.CID]bool{"ABI": abiCIDs, "layout": layoutCIDs} {
		fetches := 0
		for cid := range cids {
			fetches += blobs.gets[cid]
		}
		if fetches != 2 {
			t.Fatalf("a cold walk and bind of %d versions fetched the %s %d times, want 2: %v", len(line), what, fetches, blobs.gets)
		}
	}
	if len(blobs.gets) != 4 {
		t.Fatalf("a cold walk and bind fetched %d blobs, want the 2 ABIs and 2 layouts: %v", len(blobs.gets), blobs.gets)
	}

	// Concurrent first binds on another cold manager: every version
	// that names the shared blob gets the same parsed ABI.
	cold = NewManager(m.Client, ipfs.NewNode(blobs), m.Store)
	bound := make([]*web3.BoundContract, len(line))
	var wg sync.WaitGroup
	for i := 1; i < len(line); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := cold.BindVersion(line[i])
			if err != nil {
				t.Error(err)
				return
			}
			bound[i] = b
		}(i)
	}
	wg.Wait()
	for i := 2; i < len(line); i++ {
		if bound[i] == nil || bound[i].ABI != bound[1].ABI {
			t.Fatalf("v%d and v2 were bound to different parsed ABIs", i+1)
		}
	}
}
