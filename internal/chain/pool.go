package chain

import (
	"bytes"
	"context"
	"sort"
	"time"

	"legalchain/internal/ethtypes"
	"legalchain/internal/evm"
)

// Batch mining: by default the devnet seals one block per transaction
// (SendTransaction), matching Ganache's automine. For workloads that
// want realistic multi-transaction blocks — cumulative gas, transaction
// indexes, shared timestamps — transactions can instead be queued with
// SubmitTransaction and sealed together with MineBlock, which executes
// the batch on the optimistic-parallel executor (executor.go).

// SubmitTransaction validates tx statelessly — before bc.mu is taken,
// see admitStateless — and queues it for the next MineBlock call. Nonce
// and balance are checked at mining time, in queue order.
func (bc *Blockchain) SubmitTransaction(tx *ethtypes.Transaction) (ethtypes.Hash, error) {
	hash, _, err := bc.admitStateless(tx)
	if err != nil {
		return hash, err
	}
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if bc.knownLocked(hash) {
		return hash, ErrKnownTransaction
	}
	bc.pending = append(bc.pending, tx)
	if bc.pendingSet == nil {
		bc.pendingSet = make(map[ethtypes.Hash]struct{})
	}
	bc.pendingSet[hash] = struct{}{}
	bc.hub.enqueue(Event{TxHash: hash})
	mTxpoolPending.Set(int64(len(bc.pending)))
	return hash, nil
}

// PendingCount returns the queued transaction count.
func (bc *Blockchain) PendingCount() int {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	return len(bc.pending)
}

// MineBlock seals every pending transaction into one block, ordered by
// (sender, nonce) then submission order, and returns it. Transactions
// whose nonce or funds are wrong at execution time are dropped with
// their error recorded in the returned map. Mining an empty pool
// produces an empty block (useful to advance time).
func (bc *Blockchain) MineBlock() (*ethtypes.Block, map[ethtypes.Hash]error) {
	return bc.MineBlockAsync().Wait()
}

// MineBlockAsync executes and seals the pending batch, returning as
// soon as execution finishes. On a pipelined chain the seal tail
// (state root, fsync, view publication) completes in the background —
// overlapping with the next batch's submission and execution — and
// PendingBlock.Wait joins it. On a non-pipelined chain the block is
// already fully sealed on return.
func (bc *Blockchain) MineBlockAsync() *PendingBlock {
	sealStart := time.Now()
	bc.mu.Lock()
	bc.waitPipelineSlotLocked()

	txs := bc.pending
	bc.pending = nil
	bc.pendingSet = nil
	mTxpoolPending.Set(0)
	// Stable order: by sender then nonce; submission order breaks ties.
	// Every queued transaction had its sender recovered at submission,
	// so this costs a memo hit (one signing digest) per transaction.
	metas := bc.recoverSenders(txs)
	sort.SliceStable(metas, func(i, j int) bool {
		if c := bytes.Compare(metas[i].sender[:], metas[j].sender[:]); c != 0 {
			return c < 0
		}
		if metas[i].tx.Nonce != metas[j].tx.Nonce {
			return metas[i].tx.Nonce < metas[j].tx.Nonce
		}
		return metas[i].idx < metas[j].idx
	})

	header := bc.nextHeaderLocked()
	bc.timeOffset = 0
	included, receipts, failed, cumulative := bc.executeBatchLocked(context.Background(), header, metas)

	header.GasUsed = cumulative
	header.TxRoot = ethtypes.TxRootOf(included)
	mTxsFailed.Add(uint64(len(failed)))
	t := bc.sealTailLocked(context.Background(), header, included, receipts, sealStart)
	bc.mu.Unlock()
	return &PendingBlock{t: t, failed: failed}
}

func nonceErr(have, want uint64) error {
	if have < want {
		return ErrNonceTooLow
	}
	return ErrNonceTooHigh
}

// TraceCall executes a read-only message against the published head view
// with a structured tracer attached, returning the call result and the
// trace — the debug_traceCall facility. Lock-free.
func (bc *Blockchain) TraceCall(from ethtypes.Address, to *ethtypes.Address, data []byte, gas uint64) (*CallResult, *evm.StructLogger) {
	return bc.View().TraceCall(from, to, data, gas)
}
