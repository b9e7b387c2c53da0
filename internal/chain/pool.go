package chain

import (
	"bytes"
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"legalchain/internal/ethtypes"
	"legalchain/internal/evm"
)

// Batch mining: by default the devnet seals one block per transaction
// (SendTransaction), matching Ganache's automine. For workloads that
// want realistic multi-transaction blocks — cumulative gas, transaction
// indexes, shared timestamps — transactions can instead be queued with
// SubmitTransaction and sealed together with MineBlock, which runs the
// sorted batch through the one block loop (runBlock, chain.go) on the
// live state, with the hashes and senders admission computed, and seals
// it like any other block (seal.go).

// txMeta is one transaction as the block loop runs it: with its hash,
// its recovered sender and, in the pool, its submission index.
type txMeta struct {
	tx     *ethtypes.Transaction
	hash   ethtypes.Hash
	sender ethtypes.Address
	idx    int
}

// maxExecWorkers bounds the default sender-recovery pool.
const maxExecWorkers = 8

// execWorkerCount resolves the configured recovery-pool width (0 = auto).
func (bc *Blockchain) execWorkerCount() int {
	if bc.execWorkers > 0 {
		return bc.execWorkers
	}
	w := runtime.GOMAXPROCS(0)
	if w > maxExecWorkers {
		w = maxExecWorkers
	}
	return w
}

// WithExecWorkers sizes the sender-recovery pool that restart recovery
// and historical tracing fan out on (recoverSenders): 0 picks
// min(GOMAXPROCS, 8), 1 recovers inline. MineBlock recovers nothing: it
// takes each sender that admission recovered from the pool's txMeta.
// Execution itself is always serial.
func WithExecWorkers(n int) Option {
	return func(o *openConfig) { o.execWorkers = n }
}

// SubmitTransaction validates tx statelessly — before bc.mu is taken,
// see admitStateless — and queues it for the next MineBlock call. Nonce
// and balance are checked at mining time, in queue order.
func (bc *Blockchain) SubmitTransaction(tx *ethtypes.Transaction) (ethtypes.Hash, error) {
	hash, sender, err := bc.admitStateless(tx)
	if err != nil {
		return hash, err
	}
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if bc.knownLocked(hash) {
		return hash, ErrKnownTransaction
	}
	bc.pending = append(bc.pending, txMeta{tx: tx, hash: hash, sender: sender, idx: len(bc.pending)})
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
// their error recorded in the returned map (nil when none was). Mining
// an empty pool produces an empty block (useful to advance time).
func (bc *Blockchain) MineBlock() (*ethtypes.Block, map[ethtypes.Hash]error) {
	sealStart := time.Now()
	bc.mu.Lock()
	defer bc.mu.Unlock()

	metas := bc.pending
	bc.pending = nil
	bc.pendingSet = nil
	mTxpoolPending.Set(0)
	// Stable order: by sender then nonce; submission order breaks ties.
	// Admission recovered every sender and hashed every transaction.
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
	included, receipts, failed, gasUsed := runBlock(context.Background(), bc.execEnvLocked(), header, metas, nil)
	header.GasUsed = gasUsed
	mTxsFailed.Add(uint64(len(failed)))
	return bc.sealLocked(context.Background(), header, included, receipts, sealStart), failed
}

// recoverSenders sets the sender of every meta on the worker pool:
// for a journal suffix decoded from disk, real ECDSA recoveries
// (≈ 0.15 ms of curve arithmetic each, embarrassingly parallel) that
// recovery does before it replays the suffix serially. It returns the
// index of the first meta whose signature does not recover, len(metas)
// when every one does.
func (bc *Blockchain) recoverSenders(metas []txMeta) int {
	workers := min(bc.execWorkerCount(), len(metas))
	errs := make([]error, len(metas))
	recoverOne := func(i int) { metas[i].sender, errs[i] = metas[i].tx.Sender(bc.chainID) }
	if workers <= 1 {
		for i := range metas {
			recoverOne(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(metas) {
						return
					}
					recoverOne(i)
				}
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return i
		}
	}
	return len(metas)
}

// TraceCall executes a read-only message against the published head view
// with a structured tracer attached, returning the call result and the
// trace — the debug_traceCall facility. Lock-free.
func (bc *Blockchain) TraceCall(from ethtypes.Address, to *ethtypes.Address, data []byte, gas uint64) (*CallResult, *evm.StructLogger) {
	return bc.View().TraceCall(from, to, data, gas)
}
