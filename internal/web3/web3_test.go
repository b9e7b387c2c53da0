package web3

import (
	"errors"
	"testing"

	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/minisol"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
)

func rig(t *testing.T) (*Client, []wallet.Account) {
	t.Helper()
	accs := wallet.DevAccounts("web3 test", 3)
	g := chain.DefaultGenesis()
	g.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(100))
	bc := chain.New(g)
	ks := wallet.NewKeystore()
	for _, a := range accs {
		ks.Import(a.Key)
	}
	client, err := NewClient(NewLocalBackend(bc), ks)
	if err != nil {
		t.Fatal(err)
	}
	return client, accs
}

func TestTransferWithAutoNonceAndGas(t *testing.T) {
	client, accs := rig(t)
	for i := 0; i < 3; i++ {
		rcpt, err := client.Transfer(TxOpts{From: accs[0].Address, Value: ethtypes.Ether(1)}, accs[1].Address)
		if err != nil {
			t.Fatal(err)
		}
		if rcpt.BlockNumber != uint64(i+1) {
			t.Fatalf("block %d", rcpt.BlockNumber)
		}
	}
	bal, _ := client.Backend().GetBalance(accs[1].Address)
	if bal != ethtypes.Ether(103) {
		t.Fatalf("balance %s", ethtypes.FormatEther(bal))
	}
}

func TestSignerMissingKey(t *testing.T) {
	client, _ := rig(t)
	stranger := ethtypes.HexToAddress("0x00000000000000000000000000000000000000cc")
	_, err := client.Transfer(TxOpts{From: stranger, Value: uint256.One}, stranger)
	if err == nil {
		t.Fatal("signed without key")
	}
}

const testSrc = `
contract Box {
	uint public value;
	event changed(uint v);
	constructor(uint v) public { value = v; }
	function set(uint v) public { value = v; emit changed(v); }
	function boom() public { revert("kaput"); }
}`

func TestDeployTransactCallHelpers(t *testing.T) {
	client, accs := rig(t)
	art, err := minisol.CompileContract(testSrc, "Box")
	if err != nil {
		t.Fatal(err)
	}
	box, rcpt, err := client.Deploy(TxOpts{From: accs[0].Address}, art.ABI, art.Bytecode, uint64(5))
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.ContractAddress == nil {
		t.Fatal("no address")
	}
	v, err := box.CallUint(accs[1].Address, "value")
	if err != nil || v.Uint64() != 5 {
		t.Fatalf("value = %s, %v", v, err)
	}
	if _, err := box.Transact(TxOpts{From: accs[1].Address}, "set", uint64(9)); err != nil {
		t.Fatal(err)
	}
	v, _ = box.CallUint(accs[1].Address, "value")
	if v.Uint64() != 9 {
		t.Fatal("set ineffective")
	}
	// Typed-call helpers reject wrong shapes.
	if _, err := box.CallString(accs[1].Address, "value"); err == nil {
		t.Fatal("CallString on uint accepted")
	}
	if _, err := box.CallAddress(accs[1].Address, "value"); err == nil {
		t.Fatal("CallAddress on uint accepted")
	}
	// Events.
	evs, err := box.FilterEvents("changed", 0)
	if err != nil || len(evs) != 1 {
		t.Fatalf("events %d, %v", len(evs), err)
	}
	if _, err := box.FilterEvents("nosuch", 0); err == nil {
		t.Fatal("unknown event accepted")
	}
}

func TestRevertReasonSurfaced(t *testing.T) {
	client, accs := rig(t)
	art, _ := minisol.CompileContract(testSrc, "Box")
	box, _, err := client.Deploy(TxOpts{From: accs[0].Address}, art.ABI, art.Bytecode, uint64(1))
	if err != nil {
		t.Fatal(err)
	}
	// Via estimate (no explicit gas): the revert reason arrives as a
	// RevertError before any transaction is sent.
	_, err = box.Transact(TxOpts{From: accs[0].Address}, "boom")
	var rev *RevertError
	if !errors.As(err, &rev) || rev.Reason != "kaput" {
		t.Fatalf("err = %v", err)
	}
	// With explicit gas the tx mines and fails: receipt + ErrTxFailed.
	rcpt, err := box.Transact(TxOpts{From: accs[0].Address, GasLimit: 200_000}, "boom")
	if !errors.Is(err, ErrTxFailed) {
		t.Fatalf("err = %v", err)
	}
	if rcpt == nil || rcpt.Succeeded() || rcpt.RevertReason != "kaput" {
		t.Fatalf("receipt = %+v", rcpt)
	}
}

func TestBindExistingContract(t *testing.T) {
	client, accs := rig(t)
	art, _ := minisol.CompileContract(testSrc, "Box")
	box, _, err := client.Deploy(TxOpts{From: accs[0].Address}, art.ABI, art.Bytecode, uint64(3))
	if err != nil {
		t.Fatal(err)
	}
	rebound := client.Bind(box.Address, art.ABI)
	v, err := rebound.CallUint(accs[0].Address, "value")
	if err != nil || v.Uint64() != 3 {
		t.Fatal("rebound call failed")
	}
}

func TestDeployRevertingConstructor(t *testing.T) {
	client, accs := rig(t)
	src := `contract Nope { constructor() public { revert("never"); } }`
	art, err := minisol.CompileContract(src, "Nope")
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = client.Deploy(TxOpts{From: accs[0].Address, GasLimit: 1_000_000}, art.ABI, art.Bytecode)
	if err == nil {
		t.Fatal("reverting constructor deployed")
	}
}
