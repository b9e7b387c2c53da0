package chain

import (
	"bytes"
	"context"
	"fmt"
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
// SubmitTransaction and sealed together with MineBlock, which executes
// the sorted batch serially on the live state and seals it like any
// other block (seal.go).

// txMeta is one pool transaction with its hash, its recovered sender
// and its submission index. (recoverSenders leaves hash zero.)
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

// WithExecWorkers sizes the sender-recovery pool that MineBlock and
// restart replay fan out on: 0 picks min(GOMAXPROCS, 8), 1 recovers
// inline. Execution itself is always serial.
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
// their error recorded in the returned map. Mining an empty pool
// produces an empty block (useful to advance time).
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
	bc.timeOffset = 0
	included, receipts, failed, cumulative := bc.executeBatchLocked(context.Background(), header, metas)

	header.GasUsed = cumulative
	mTxsFailed.Add(uint64(len(failed)))
	return bc.sealLocked(context.Background(), header, included, receipts, sealStart), failed
}

// executeBatchLocked executes the sorted batch against bc.st, one
// transaction after another, and returns the included transactions,
// their receipts (indexes, cumulative gas and block-wide log indexes
// finalised), the dropped-transaction map and the block's gas used.
// Called with bc.mu held; bc.st holds the post-batch state on return.
func (bc *Blockchain) executeBatchLocked(ctx context.Context, header *ethtypes.Header, metas []txMeta) ([]*ethtypes.Transaction, []*ethtypes.Receipt, map[ethtypes.Hash]error, uint64) {
	failed := map[ethtypes.Hash]error{}
	var included []*ethtypes.Transaction
	var receipts []*ethtypes.Receipt
	var cumulative uint64
	var logIndex uint
	for _, m := range metas {
		if expected := bc.st.GetNonce(m.sender); m.tx.Nonce != expected {
			failed[m.hash] = fmt.Errorf("%w: have %d, want %d", nonceErr(m.tx.Nonce, expected), m.tx.Nonce, expected)
			continue
		}
		rcpt, err := bc.applyTransaction(ctx, header, m.tx, m.hash, m.sender)
		if err != nil {
			failed[m.hash] = err
			continue
		}
		rcpt.TxIndex = uint(len(included))
		cumulative += rcpt.GasUsed
		rcpt.CumulativeGasUsed = cumulative
		for _, l := range rcpt.Logs {
			l.TxIndex = rcpt.TxIndex
			l.Index = logIndex
			logIndex++
		}
		included = append(included, m.tx)
		receipts = append(receipts, rcpt)
	}
	return included, receipts, failed, cumulative
}

func nonceErr(have, want uint64) error {
	if have < want {
		return ErrNonceTooLow
	}
	return ErrNonceTooHigh
}

// recoverSenders resolves every transaction's sender on the worker
// pool: real ECDSA recoveries (≈ 0.15 ms of curve arithmetic each,
// embarrassingly parallel) that warm the sender memo of a journal
// suffix, whose transactions were decoded from disk without one, before
// recovery replays it. Transactions whose signature does not recover are
// silently skipped.
func (bc *Blockchain) recoverSenders(txs []*ethtypes.Transaction) []txMeta {
	workers := bc.execWorkerCount()
	if workers > len(txs) {
		workers = len(txs)
	}
	senders := make([]ethtypes.Address, len(txs))
	errs := make([]error, len(txs))
	if workers <= 1 {
		for i, tx := range txs {
			senders[i], errs[i] = tx.Sender(bc.chainID)
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
					if i >= len(txs) {
						return
					}
					senders[i], errs[i] = txs[i].Sender(bc.chainID)
				}
			}()
		}
		wg.Wait()
	}
	metas := make([]txMeta, 0, len(txs))
	for i, tx := range txs {
		if errs[i] != nil {
			continue
		}
		metas = append(metas, txMeta{tx: tx, sender: senders[i], idx: i})
	}
	return metas
}

// TraceCall executes a read-only message against the published head view
// with a structured tracer attached, returning the call result and the
// trace — the debug_traceCall facility. Lock-free.
func (bc *Blockchain) TraceCall(from ethtypes.Address, to *ethtypes.Address, data []byte, gas uint64) (*CallResult, *evm.StructLogger) {
	return bc.View().TraceCall(from, to, data, gas)
}
