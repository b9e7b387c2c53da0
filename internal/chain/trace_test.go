package chain

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/evm"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
	"legalchain/internal/xtrace"
)

func structLogFactory() evm.Tracer  { return evm.NewStructLogger() }
func callTracerFactory() evm.Tracer { return evm.NewCallTracer() }

// TestTraceBlocksFaithfulMultiBlock replays every block of a mixed
// workload (deploys, contract calls with logs, transfers, batch-mined
// blocks, one of which mixes a create, multi-log calls, a revert and a
// dropped transaction) and checks each re-derived receipt against the
// stored one in every field, positions included.
func TestTraceBlocksFaithfulMultiBlock(t *testing.T) {
	bc, accs := devChain(t)
	workload(t, bc, accs, 10)
	mixedBlock(t, bc, accs)
	head := bc.BlockNumber()
	if head < 10 {
		t.Fatalf("workload too short: head=%d", head)
	}
	ctx := context.Background()
	traced := 0
	for n := uint64(1); n <= head; n++ {
		traces, err := bc.TraceBlockByNumber(ctx, n, structLogFactory)
		if err != nil {
			t.Fatalf("block %d: %v", n, err)
		}
		block, _ := bc.View().BlockByNumber(n)
		if len(traces) != len(block.Transactions) {
			t.Fatalf("block %d: %d traces for %d txs", n, len(traces), len(block.Transactions))
		}
		for _, tr := range traces {
			stored, ok := bc.GetReceipt(tr.TxHash)
			if !ok {
				t.Fatalf("no stored receipt for %s", tr.TxHash.Hex())
			}
			if !reflect.DeepEqual(tr.Receipt, stored) {
				t.Fatalf("block %d tx %s: replayed %+v, stored %+v", n, tr.TxHash.Hex(), tr.Receipt, stored)
			}
			for i, l := range tr.Receipt.Logs {
				if s := stored.Logs[i]; !reflect.DeepEqual(l, s) {
					t.Fatalf("block %d tx %s log %d: replayed %+v, stored %+v", n, tr.TxHash.Hex(), i, l, s)
				}
			}
			sl, ok := tr.Tracer.(*evm.StructLogger)
			if !ok {
				t.Fatal("tracer is not the StructLogger the factory made")
			}
			// Contract interactions must produce steps; plain transfers
			// never enter the interpreter.
			if stored.To != nil && len(bc.GetCode(*stored.To)) > 0 && len(sl.Logs) == 0 {
				t.Fatalf("contract call traced zero steps: %s", tr.TxHash.Hex())
			}
			traced++
		}
	}
	if traced < 10 {
		t.Fatalf("only %d transactions traced", traced)
	}
}

// TestTraceTransactionCallTracer checks the geth-style frame tree of a
// historical contract call.
func TestTraceTransactionCallTracer(t *testing.T) {
	bc, accs := devChain(t)
	addr, art := deployCounter(t, bc, accs[0])
	input, _ := art.ABI.Pack("increment")
	tx := signedTx(t, bc, accs[0], &addr, uint256.Zero, input, 200_000)
	hash, err := bc.SendTransaction(tx)
	if err != nil {
		t.Fatal(err)
	}

	tr, err := bc.TraceTransaction(context.Background(), hash, callTracerFactory)
	if err != nil {
		t.Fatal(err)
	}
	ct, ok := tr.Tracer.(*evm.CallTracer)
	if !ok {
		t.Fatal("tracer is not the CallTracer the factory made")
	}
	root := ct.Result()
	if root == nil || root.Type != "CALL" || root.To != addr {
		t.Fatalf("root frame = %+v", root)
	}
	if root.From != accs[0].Address {
		t.Fatalf("root from = %s", root.From.Hex())
	}
	if len(root.Input) != len(input) {
		t.Fatalf("root input = %x", root.Input)
	}
	if root.Error != "" {
		t.Fatalf("unexpected frame error: %s", root.Error)
	}
}

// TestTraceRevertedTransaction traces a mined-but-failed tx and checks
// the revert reason survives both in the receipt and the frame tree.
func TestTraceRevertedTransaction(t *testing.T) {
	bc, accs := devChain(t)
	addr, art := deployCounter(t, bc, accs[0])
	input, _ := art.ABI.Pack("fail")
	tx := signedTx(t, bc, accs[0], &addr, uint256.Zero, input, 200_000)
	hash, err := bc.SendTransaction(tx)
	if err != nil {
		t.Fatal(err)
	}
	if rcpt, _ := bc.GetReceipt(hash); rcpt.Succeeded() {
		t.Fatal("fail() unexpectedly succeeded")
	}

	tr, err := bc.TraceTransaction(context.Background(), hash, callTracerFactory)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Receipt.Status != ethtypes.ReceiptStatusFailed || tr.Receipt.RevertReason != "always fails" {
		t.Fatalf("replayed receipt = %+v", tr.Receipt)
	}
	root := tr.Tracer.(*evm.CallTracer).Result()
	if root.RevertReason != "always fails" {
		t.Fatalf("frame revert reason = %q (error %q)", root.RevertReason, root.Error)
	}
}

// TestTraceSnapshotBounded traces a late transaction on a persistent
// chain and asserts — through the rebuildState span — that the replay
// started from a snapshot, not from genesis.
func TestTraceSnapshotBounded(t *testing.T) {
	accs := wallet.DevAccounts("trace snapshot", 3)
	dir := t.TempDir()
	bc := openPersist(t, dir, accs, 4)
	defer bc.Close()
	workload(t, bc, accs, 10) // head = 10, snapshots at 4 and 8

	xtrace.SetEnabled(true)
	xtrace.Reset()
	t.Cleanup(func() { xtrace.SetEnabled(false); xtrace.Reset() })

	head, _ := bc.View().BlockByNumber(bc.BlockNumber())
	target := head.Transactions[0].Hash()

	ctx, root := xtrace.StartRoot(context.Background(), "test", "traceTransaction", "")
	tr, err := bc.TraceTransaction(ctx, target, structLogFactory)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	stored, _ := bc.GetReceipt(target)
	if tr.Receipt.GasUsed != stored.GasUsed {
		t.Fatalf("gas %d != stored %d", tr.Receipt.GasUsed, stored.GasUsed)
	}

	td := xtrace.Lookup(xtrace.TraceIDFrom(ctx))
	if td == nil {
		t.Fatal("trace not collected")
	}
	base := ""
	for _, sp := range td.Spans {
		if sp.Tier == "chain" && sp.Name == "rebuildState" {
			for _, a := range sp.Attrs {
				if a.Key == "base" {
					base = a.Value
				}
			}
		}
	}
	if base != "8" {
		t.Fatalf("rebuild base = %q, want snapshot at block 8", base)
	}
}

// TestTraceHashesNoTransaction: a trace replays from genesis (a memory
// chain keeps no snapshot) and takes every transaction's hash from its
// stored receipt, so it computes none.
func TestTraceHashesNoTransaction(t *testing.T) {
	bc, accs := devChain(t)
	workload(t, bc, accs, 9)
	head, _ := bc.View().BlockByNumber(bc.BlockNumber())
	target := head.Transactions[0].Hash()
	before := ethtypes.TxHashes()
	if _, err := bc.TraceTransaction(context.Background(), target, structLogFactory); err != nil {
		t.Fatal(err)
	}
	if n := ethtypes.TxHashes() - before; n != 0 {
		t.Fatalf("tracing block %d after a genesis replay computed %d transaction hashes, want 0", head.Number(), n)
	}
}

// TestTraceNotFound covers the error surface.
func TestTraceNotFound(t *testing.T) {
	bc, accs := devChain(t)
	workload(t, bc, accs, 3)
	ctx := context.Background()
	if _, err := bc.TraceTransaction(ctx, ethtypes.Hash{0xde, 0xad}, nil); !errors.Is(err, ErrTraceNotFound) {
		t.Fatalf("err = %v", err)
	}
	if _, err := bc.TraceBlockByNumber(ctx, 0, nil); !errors.Is(err, ErrTraceNotFound) {
		t.Fatalf("genesis err = %v", err)
	}
	if _, err := bc.TraceBlockByNumber(ctx, bc.BlockNumber()+1, nil); !errors.Is(err, ErrTraceNotFound) {
		t.Fatalf("future err = %v", err)
	}
}
