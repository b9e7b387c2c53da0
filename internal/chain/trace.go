package chain

import (
	"context"
	"errors"
	"fmt"

	"legalchain/internal/ethtypes"
	"legalchain/internal/evm"
	"legalchain/internal/state"
	"legalchain/internal/xtrace"
)

// Historical transaction tracing (debug_traceTransaction semantics): a
// mined transaction is re-executed with a tracer attached, against the
// exact pre-state it originally ran on. The chain keeps no per-block
// state archive, so the pre-state is rebuilt: start from the newest
// persisted snapshot at or below the target block (or from the retained
// genesis when none qualifies), replay the intervening blocks through
// the block loop the sealer ran (runBlock), and verify every replayed
// block against its stored header. Replay therefore cannot drift from
// sealing — a dropped transaction or any divergence (gas, logs, status,
// state root) aborts the trace with ErrTraceDiverged instead of
// returning a trace of an execution that never happened. Replay takes
// each transaction's hash from its stored receipt, never hashing one.
//
// Everything here runs against a pinned immutable HeadView plus scratch
// state, so tracing never blocks (or is blocked by) the sealing path.

// ErrTraceNotFound reports that the transaction or block asked for is
// not part of the chain.
var ErrTraceNotFound = errors.New("chain: trace target not found")

// ErrTraceDiverged reports that re-execution did not reproduce the
// stored receipts or state commitments. This indicates snapshot/journal
// corruption (or a nondeterministic EVM) and is always a bug worth
// surfacing, never silently ignored.
var ErrTraceDiverged = errors.New("chain: historical replay diverged from stored chain")

// TxTrace is the outcome of re-executing one historical transaction.
type TxTrace struct {
	TxHash      ethtypes.Hash
	BlockNumber uint64
	TxIndex     uint
	// Receipt is the re-derived receipt, verified field-by-field against
	// the stored one.
	Receipt *ethtypes.Receipt
	// Tracer is the tracer that observed the re-execution (the value the
	// factory returned; nil when no factory was given). Callers assert it
	// back to *evm.StructLogger / *evm.CallTracer for output rendering.
	Tracer evm.Tracer
}

// TraceTransaction re-executes the mined transaction txHash with a
// tracer from factory attached and returns its trace. factory may be
// nil, which still verifies the replay (a cheap audit of the stored
// chain).
func (bc *Blockchain) TraceTransaction(ctx context.Context, txHash ethtypes.Hash, factory func() evm.Tracer) (*TxTrace, error) {
	ctx, sp := xtrace.Start(ctx, "chain", "traceTransaction")
	defer sp.End()
	if sp != nil {
		sp.SetAttr("tx", txHash.Hex())
	}
	view := bc.View()
	rcpt, ok := view.GetReceipt(txHash)
	if !ok {
		return nil, fmt.Errorf("%w: transaction %s", ErrTraceNotFound, txHash.Hex())
	}
	traces, err := bc.traceBlock(ctx, view, rcpt.BlockNumber, factory, &txHash)
	if err != nil {
		sp.SetError(err)
		return nil, err
	}
	for _, tr := range traces {
		if tr.TxHash == txHash {
			return tr, nil
		}
	}
	// Unreachable: the receipt pinned the tx into that block.
	return nil, fmt.Errorf("%w: transaction %s vanished from block %d", ErrTraceDiverged, txHash.Hex(), rcpt.BlockNumber)
}

// TraceBlockByNumber re-executes every transaction of block n, each
// with its own tracer from factory, and returns the traces in
// transaction order.
func (bc *Blockchain) TraceBlockByNumber(ctx context.Context, n uint64, factory func() evm.Tracer) ([]*TxTrace, error) {
	ctx, sp := xtrace.Start(ctx, "chain", "traceBlock")
	defer sp.End()
	sp.SetAttrUint("block", n)
	traces, err := bc.traceBlock(ctx, bc.View(), n, factory, nil)
	if err != nil {
		sp.SetError(err)
	}
	return traces, err
}

// traceBlock rebuilds the state before block n, then re-executes the
// block. When only is non-nil, just that transaction gets a tracer;
// every transaction is executed and verified regardless (later txs in
// the block need the earlier ones' state effects anyway).
func (bc *Blockchain) traceBlock(ctx context.Context, view *HeadView, n uint64, factory func() evm.Tracer, only *ethtypes.Hash) ([]*TxTrace, error) {
	if n == 0 {
		return nil, fmt.Errorf("%w: genesis holds no transactions", ErrTraceNotFound)
	}
	if n > view.BlockNumber() {
		return nil, fmt.Errorf("%w: block %d", ErrTraceNotFound, n)
	}
	st, err := bc.stateBefore(ctx, view, n)
	if err != nil {
		return nil, err
	}

	tracers := map[int]evm.Tracer{}
	stored, receipts, err := bc.replayStored(ctx, view, st, n, func(i int, m txMeta) evm.Tracer {
		if factory == nil || (only != nil && m.hash != *only) {
			return nil
		}
		tracers[i] = factory()
		return tracers[i]
	})
	if err != nil {
		return nil, err
	}
	traces := make([]*TxTrace, 0, len(receipts))
	for i, rcpt := range receipts {
		if err := receiptsMatch(rcpt, stored[i]); err != nil {
			return nil, fmt.Errorf("%w: block %d tx %d: %v", ErrTraceDiverged, n, i, err)
		}
		traces = append(traces, &TxTrace{
			TxHash:      rcpt.TxHash,
			BlockNumber: n,
			TxIndex:     rcpt.TxIndex,
			Receipt:     rcpt,
			Tracer:      tracers[i],
		})
	}
	return traces, nil
}

// stateBefore returns a mutable scratch state as of the end of block
// n-1 (the pre-state of block n), rebuilt from the nearest usable
// persisted snapshot, or from genesis when none qualifies.
func (bc *Blockchain) stateBefore(ctx context.Context, view *HeadView, n uint64) (*state.StateDB, error) {
	target := n - 1

	// Base: genesis, unless a persisted snapshot at or below target
	// passes the same validity checks recovery applies (bound to a block
	// this view actually has, decodes, and reproduces the committed
	// state root). Snapshots are loaded lazily newest-first, stopping at
	// the first that verifies. (A state-store chain writes no snapshots —
	// its anchor sits at the head, which is no use as a pre-state — so
	// there it always replays from genesis, reading evicted blocks back
	// through the view.)
	st, _ := genesisState(bc.genesis)
	base := uint64(0)
	if bc.dataDir != "" {
		snapSt, n := newestSnapshot(bc.dataDir, target, func(n uint64) (*ethtypes.Header, bool) {
			b, ok := view.BlockByNumber(n)
			if !ok {
				return nil, false
			}
			return b.Header, true
		})
		if snapSt != nil {
			st, base = snapSt, n
		}
	}

	_, sp := xtrace.Start(ctx, "chain", "rebuildState")
	defer sp.End()
	sp.SetAttrUint("base", base)
	sp.SetAttrUint("target", target)

	// Replay (untraced) every block between the base and the target,
	// verifying each block's state commitment as we go.
	for h := base + 1; h <= target; h++ {
		if _, _, err := bc.replayStored(ctx, view, st, h, nil); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// replayStored replays block n of view on st (replayBlock) and returns
// the receipts the view stores for it and the replayed ones. Each
// transaction's hash is the one its stored receipt carries; its sender
// comes from recoverSenders. BLOCKHASH resolves as it did while block n
// was sealed: blocks below n resolve, n and later did not exist yet.
func (bc *Blockchain) replayStored(ctx context.Context, view *HeadView, st *state.StateDB, n uint64, tracerFor func(int, txMeta) evm.Tracer) (stored, receipts []*ethtypes.Receipt, err error) {
	block, stored, ok := view.blockAt(n)
	if !ok {
		return nil, nil, fmt.Errorf("%w: block %d", ErrTraceNotFound, n)
	}
	if len(stored) != len(block.Transactions) {
		return nil, nil, fmt.Errorf("%w: block %d has %d stored receipts for %d transactions", ErrTraceDiverged, n, len(stored), len(block.Transactions))
	}
	metas := make([]txMeta, len(stored))
	for i, rcpt := range stored {
		metas[i] = txMeta{tx: block.Transactions[i], hash: rcpt.TxHash}
	}
	if i := bc.recoverSenders(metas); i < len(metas) {
		return nil, nil, fmt.Errorf("%w: block %d tx %d: sender does not recover", ErrTraceDiverged, n, i)
	}
	blockHash := func(x uint64) ethtypes.Hash {
		if x < n {
			return view.blockHash(x)
		}
		return ethtypes.Hash{}
	}
	receipts, err = replayBlock(ctx, &execEnv{chainID: bc.chainID, st: st, getBlockHash: blockHash}, block, metas, tracerFor)
	return stored, receipts, err
}

// replayBlock re-executes block through the sealer's own block loop
// (runBlock) on env.st, with metas as its transactions, and verifies
// what sealing committed: every transaction is included, and the total
// gas, state root and receipt root match the header. Crash recovery and
// historical tracing both replay through it; env.getBlockHash resolves
// BLOCKHASH the way the block saw it when sealed. tracerFor may be nil;
// otherwise it picks the tracer (possibly nil) for each transaction.
// The returned receipts carry the block's hash. An execution panic,
// possible only when env.st has left the sealing-time lineage, is
// reported as ErrTraceDiverged: a replay must never crash the node.
func replayBlock(ctx context.Context, env *execEnv, block *ethtypes.Block, metas []txMeta, tracerFor func(int, txMeta) evm.Tracer) (receipts []*ethtypes.Receipt, err error) {
	header := block.Header
	defer func() {
		if p := recover(); p != nil {
			receipts, err = nil, fmt.Errorf("%w: block %d: panic: %v", ErrTraceDiverged, header.Number, p)
		}
	}()
	_, receipts, failed, gasUsed := runBlock(ctx, env, header, metas, tracerFor)
	for i, m := range metas {
		if err := failed[m.hash]; err != nil {
			return nil, fmt.Errorf("%w: block %d tx %d: %v", ErrTraceDiverged, header.Number, i, err)
		}
	}
	if gasUsed != header.GasUsed {
		return nil, fmt.Errorf("%w: block %d gas used %d, header says %d", ErrTraceDiverged, header.Number, gasUsed, header.GasUsed)
	}
	if root := env.st.Root(); root != header.StateRoot {
		return nil, fmt.Errorf("%w: block %d state root %s, header says %s", ErrTraceDiverged, header.Number, root.Hex(), header.StateRoot.Hex())
	}
	if rr := DeriveReceiptRoot(receipts); rr != header.ReceiptRoot {
		return nil, fmt.Errorf("%w: block %d receipt root %s, header says %s", ErrTraceDiverged, header.Number, rr.Hex(), header.ReceiptRoot.Hex())
	}
	blockHash := block.Hash()
	for _, rcpt := range receipts {
		rcpt.BlockHash = blockHash
		for _, l := range rcpt.Logs {
			l.BlockHash = blockHash
		}
	}
	return receipts, nil
}

// receiptsMatch verifies a replayed receipt against the stored one,
// field by field (the log comparison covers address, topics and data).
func receiptsMatch(got, want *ethtypes.Receipt) error {
	if got.Status != want.Status {
		return fmt.Errorf("status %d != stored %d", got.Status, want.Status)
	}
	if got.GasUsed != want.GasUsed {
		return fmt.Errorf("gasUsed %d != stored %d", got.GasUsed, want.GasUsed)
	}
	if got.RevertReason != want.RevertReason {
		return fmt.Errorf("revertReason %q != stored %q", got.RevertReason, want.RevertReason)
	}
	if (got.ContractAddress == nil) != (want.ContractAddress == nil) {
		return errors.New("contractAddress presence mismatch")
	}
	if got.ContractAddress != nil && *got.ContractAddress != *want.ContractAddress {
		return fmt.Errorf("contractAddress %s != stored %s", got.ContractAddress.Hex(), want.ContractAddress.Hex())
	}
	if len(got.Logs) != len(want.Logs) {
		return fmt.Errorf("%d logs != stored %d", len(got.Logs), len(want.Logs))
	}
	for i := range got.Logs {
		g, w := got.Logs[i], want.Logs[i]
		if g.Address != w.Address {
			return fmt.Errorf("log %d address mismatch", i)
		}
		if len(g.Topics) != len(w.Topics) {
			return fmt.Errorf("log %d topic count mismatch", i)
		}
		for j := range g.Topics {
			if g.Topics[j] != w.Topics[j] {
				return fmt.Errorf("log %d topic %d mismatch", i, j)
			}
		}
		if string(g.Data) != string(w.Data) {
			return fmt.Errorf("log %d data mismatch", i)
		}
	}
	return nil
}
