package chain

import (
	"context"
	"fmt"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/minisol"
	"legalchain/internal/state"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
)

// worldAddr is the i-th pre-funded account of a benchmark world, spread
// over the address space as real addresses are.
func worldAddr(i int) ethtypes.Address {
	h := ethtypes.Keccak256([]byte(fmt.Sprintf("world account %d", i)))
	return ethtypes.BytesToAddress(h[12:])
}

// BenchmarkSealAtWorldSize seals one instant-seal transfer per op, its
// sender recovered in advance, on worlds of 0, 1k, 10k and 100k extra
// pre-funded accounts. A seal that costs what its block changed takes
// the same time and allocations at every size.
func BenchmarkSealAtWorldSize(b *testing.B) {
	for _, world := range []int{0, 1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("accounts=%d", world), func(b *testing.B) {
			acc := wallet.DevAccounts("seal bench", 1)[0]
			g := DefaultGenesis()
			g.Alloc = map[ethtypes.Address]uint256.Int{acc.Address: ethtypes.Ether(1_000_000)}
			for i := 0; i < world; i++ {
				g.Alloc[worldAddr(i)] = ethtypes.Ether(1)
			}
			bc := New(g)
			to := worldAddr(-1)
			txs := make([]*ethtypes.Transaction, b.N)
			for i := range txs {
				tx := &ethtypes.Transaction{Nonce: uint64(i), GasPrice: ethtypes.Gwei(1), Gas: 21_000, To: &to, Value: uint256.One}
				if err := tx.Sign(acc.Key, bc.ChainID()); err != nil {
					b.Fatal(err)
				}
				if _, err := tx.Sender(bc.ChainID()); err != nil {
					b.Fatal(err)
				}
				txs[i] = tx
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, tx := range txs {
				if _, err := bc.SendTransaction(tx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// deepSrc holds more slots than a version merges every time
// (state's smallStorage), so its versions layer.
const deepSrc = `
contract Deep {
	uint public fixedValue;
	uint public bumps;
	mapping(uint => uint) filler;
	constructor() public {
		fixedValue = 7;
		for (uint i = 0; i < 80; i++) { filler[i] = i + 1; }
	}
	function bump() public { bumps += 1; }
}`

// BenchmarkHeadViewReadAtDepth reads a slot written only by the
// constructor — so held by the contract's oldest frozen version — on the
// head view after 0 and after state.StorageLayers-1 later blocks each wrote
// another of its slots: the shallowest read and the deepest one before
// the versions are merged. GetState is the storage read, CallCtx the
// same read as an eth_call of the getter.
func BenchmarkHeadViewReadAtDepth(b *testing.B) {
	art, err := minisol.CompileContract(deepSrc, "Deep")
	if err != nil {
		b.Fatal(err)
	}
	getter, _ := art.ABI.Pack("fixedValue")
	bump, _ := art.ABI.Pack("bump")
	for _, depth := range []int{0, state.StorageLayers - 1} {
		accs := wallet.DevAccounts("read bench", 2)
		g := DefaultGenesis()
		g.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(100))
		bc := New(g)
		tx := signedTx(b, bc, accs[0], nil, uint256.Zero, art.Bytecode, 5_000_000)
		hash, err := bc.SendTransaction(tx)
		if err != nil {
			b.Fatal(err)
		}
		rcpt, _ := bc.GetReceipt(hash)
		addr := *rcpt.ContractAddress
		for i := 0; i < depth; i++ {
			if _, err := bc.SendTransaction(signedTx(b, bc, accs[0], &addr, uint256.Zero, bump, 100_000)); err != nil {
				b.Fatal(err)
			}
		}
		v := bc.View()
		b.Run(fmt.Sprintf("GetState/depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if v.GetStorageAt(addr, ethtypes.Hash{}).Uint64() != 7 {
					b.Fatal("wrong slot value")
				}
			}
		})
		b.Run(fmt.Sprintf("CallCtx/depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := v.CallCtx(context.Background(), accs[1].Address, &addr, getter, uint256.Zero, 0); res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		})
	}
}
