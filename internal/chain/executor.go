package chain

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"legalchain/internal/ethtypes"
	"legalchain/internal/state"
	"legalchain/internal/uint256"
)

// Optimistic-parallel block executor (Block-STM style). MineBlock's
// batch is executed in two phases under bc.mu:
//
//  Phase 1 — speculate: every transaction runs concurrently against
//  the quiescent pre-block state through its own copy-on-read Overlay,
//  recording the exact set of state locations it read and wrote.
//
//  Phase 2 — validate and commit, in block order: a transaction whose
//  read set is disjoint from everything committed before it observed
//  exactly the state a serial run would have, so its recorded outcome
//  (receipt, write-set diff) is committed as-is. A transaction whose
//  reads overlap an earlier commit is re-executed serially on the
//  canonical state — the repair run is the serial run, so the block is
//  serially equivalent by construction: byte-identical state root,
//  receipts, logs and failure map versus the serial loop.
//
// Two refinements keep the common workloads conflict-sparse:
//
//   - Coinbase fees: every transaction credits the coinbase, which
//     would make every pair conflict. Speculation diverts the fee into
//     the outcome (execEnv.coinbaseFee) instead of writing the balance;
//     the commit applies it as a blind in-order delta. Only code that
//     actually reads the coinbase balance conflicts.
//   - Nonce chains: consecutive nonces from one sender always conflict
//     (each reads the nonce the previous one wrote). They are caught by
//     validation and repaired inline, costing one extra execution per
//     dependent transaction rather than a round trip.
//
// Batches below minParallelBatch, or chains configured with one
// worker, take the original serial loop.

// txMeta is one pool transaction with its recovered sender and
// submission index, the unit the executor schedules.
type txMeta struct {
	tx     *ethtypes.Transaction
	sender ethtypes.Address
	idx    int
}

// execOutcome is the result of one speculative execution.
type execOutcome struct {
	err         error // admission/validity failure (tx dropped, no state change)
	receipt     *ethtypes.Receipt
	rec         *state.AccessRecorder
	diff        *state.Diff
	coinbaseFee uint256.Int
}

// minParallelBatch is the batch size below which goroutine fan-out and
// per-transaction overlay bookkeeping cost more than they save.
const minParallelBatch = 4

// maxExecWorkers bounds the default worker count; beyond this the
// speculation phase saturates memory bandwidth on the shared base maps.
const maxExecWorkers = 8

// execWorkerCount resolves the configured worker count (0 = auto).
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

// executeBatchLocked executes the sorted batch against bc.st, in
// parallel when profitable, and returns the included transactions,
// their receipts (indexes and cumulative gas finalised) and the
// dropped-transaction map. Called with bc.mu held; bc.st holds the
// post-batch state on return.
func (bc *Blockchain) executeBatchLocked(ctx context.Context, header *ethtypes.Header, metas []txMeta) ([]*ethtypes.Transaction, []*ethtypes.Receipt, map[ethtypes.Hash]error, uint64) {
	workers := bc.execWorkerCount()
	if workers <= 1 || len(metas) < minParallelBatch {
		return bc.executeSerialLocked(ctx, header, metas)
	}

	failed := map[ethtypes.Hash]error{}
	var included []*ethtypes.Transaction
	var receipts []*ethtypes.Receipt
	var cumulative uint64

	getBlockHash := bc.blockHashFnLocked()
	outs := bc.speculateAll(ctx, header, metas, workers, getBlockHash)

	// Ordered validate-and-commit sweep. accum is the union of every
	// committed write set; a speculation that read none of it observed
	// exactly the serial prefix state.
	accum := make(map[state.AccessKey]struct{})
	coinbaseBal := state.BalanceKey(header.Coinbase)
	for i, m := range metas {
		out := outs[i]
		if readsOverlap(out.rec.Reads, accum) {
			mExecConflicts.Inc()
			mExecReexec.Inc()
			out = bc.repairLocked(ctx, header, m, getBlockHash)
		}
		if out.err != nil {
			failed[m.tx.Hash()] = out.err
			// Admission failures mutate nothing and read only state that
			// validation already cleared; nothing to merge.
			continue
		}
		if out.diff != nil {
			// Clean speculative commit: replay the write set, then credit
			// the diverted coinbase fee as an in-order blind delta.
			bc.st.ApplyDiff(out.diff)
			bc.st.AddBalance(header.Coinbase, out.coinbaseFee)
		}
		for k := range out.rec.Writes {
			accum[k] = struct{}{}
		}
		accum[coinbaseBal] = struct{}{}
		accum[state.AccessKey{Addr: header.Coinbase, Kind: state.AccessExist}] = struct{}{}

		rcpt := out.receipt
		rcpt.TxIndex = uint(len(included))
		cumulative += rcpt.GasUsed
		rcpt.CumulativeGasUsed = cumulative
		for j, l := range rcpt.Logs {
			l.TxIndex = rcpt.TxIndex
			l.Index = uint(j)
		}
		included = append(included, m.tx)
		receipts = append(receipts, rcpt)
	}
	// Match the serial loop's end state: its last execTransaction ends
	// with a Finalise, clearing the journal and sweeping accounts the
	// block emptied (e.g. a zero-fee coinbase credit).
	bc.st.Finalise()
	return included, receipts, failed, cumulative
}

// executeSerialLocked is the original serial mining loop, kept as the
// small-batch fast path, the single-worker mode and the oracle the
// parallel executor is property-tested against.
func (bc *Blockchain) executeSerialLocked(ctx context.Context, header *ethtypes.Header, metas []txMeta) ([]*ethtypes.Transaction, []*ethtypes.Receipt, map[ethtypes.Hash]error, uint64) {
	failed := map[ethtypes.Hash]error{}
	var included []*ethtypes.Transaction
	var receipts []*ethtypes.Receipt
	var cumulative uint64
	for _, m := range metas {
		if expected := bc.st.GetNonce(m.sender); m.tx.Nonce != expected {
			failed[m.tx.Hash()] = fmt.Errorf("%w: have %d, want %d", nonceErr(m.tx.Nonce, expected), m.tx.Nonce, expected)
			continue
		}
		rcpt, err := bc.applyTransaction(ctx, header, m.tx, m.sender)
		if err != nil {
			failed[m.tx.Hash()] = err
			continue
		}
		rcpt.TxIndex = uint(len(included))
		cumulative += rcpt.GasUsed
		rcpt.CumulativeGasUsed = cumulative
		for i, l := range rcpt.Logs {
			l.TxIndex = rcpt.TxIndex
			l.Index = uint(i)
		}
		included = append(included, m.tx)
		receipts = append(receipts, rcpt)
	}
	return included, receipts, failed, cumulative
}

// speculateAll runs every transaction concurrently against the
// quiescent bc.st through per-transaction overlays. Safe under bc.mu:
// nothing mutates bc.st, and overlay materialisation performs only
// atomic shared-flag stores on base objects.
func (bc *Blockchain) speculateAll(ctx context.Context, header *ethtypes.Header, metas []txMeta, workers int, getBlockHash func(uint64) ethtypes.Hash) []*execOutcome {
	if workers > len(metas) {
		workers = len(metas)
	}
	outs := make([]*execOutcome, len(metas))
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
				outs[i] = bc.speculate(ctx, header, metas[i], getBlockHash)
			}
		}()
	}
	wg.Wait()
	return outs
}

// speculate executes one transaction against a fresh overlay of bc.st,
// recording its read/write sets and extracting its write-set diff.
func (bc *Blockchain) speculate(ctx context.Context, header *ethtypes.Header, m txMeta, getBlockHash func(uint64) ethtypes.Hash) *execOutcome {
	out := &execOutcome{rec: state.NewAccessRecorder()}
	ov := bc.st.Overlay()
	ov.SetRecorder(out.rec)
	defer ov.SetRecorder(nil)
	if expected := ov.GetNonce(m.sender); m.tx.Nonce != expected {
		out.err = fmt.Errorf("%w: have %d, want %d", nonceErr(m.tx.Nonce, expected), m.tx.Nonce, expected)
		return out
	}
	env := &execEnv{
		chainID:      bc.chainID,
		st:           ov,
		getBlockHash: getBlockHash,
		coinbaseFee:  &out.coinbaseFee,
	}
	rcpt, err := execTransaction(ctx, env, header, m.tx, m.sender)
	if err != nil {
		out.err = err
		return out
	}
	out.receipt = rcpt
	out.diff = ov.ExtractDiff(out.rec.Writes)
	return out
}

// repairLocked re-executes a conflicting transaction serially on the
// canonical state. The recorder captures the repair's writes so later
// validations see them; the coinbase fee is paid directly (no
// diversion needed — the run is already in order).
func (bc *Blockchain) repairLocked(ctx context.Context, header *ethtypes.Header, m txMeta, getBlockHash func(uint64) ethtypes.Hash) *execOutcome {
	out := &execOutcome{rec: state.NewAccessRecorder()}
	bc.st.SetRecorder(out.rec)
	defer bc.st.SetRecorder(nil)
	if expected := bc.st.GetNonce(m.sender); m.tx.Nonce != expected {
		out.err = fmt.Errorf("%w: have %d, want %d", nonceErr(m.tx.Nonce, expected), m.tx.Nonce, expected)
		return out
	}
	env := &execEnv{
		chainID:      bc.chainID,
		st:           bc.st,
		getBlockHash: getBlockHash,
	}
	rcpt, err := execTransaction(ctx, env, header, m.tx, m.sender)
	if err != nil {
		out.err = err
		return out
	}
	out.receipt = rcpt
	return out
}

// recoverSenders resolves every transaction's sender on the worker
// pool. For a mined batch each call is a memo hit — SubmitTransaction
// already recovered the sender before taking bc.mu — so the fan-out
// only spreads sixteen signing digests. It pays real ECDSA recoveries
// (milliseconds of math/big arithmetic each, embarrassingly parallel)
// when recovery replay warms the transactions of a journal suffix, which
// were decoded from disk without a memo. Transactions whose signature
// does not recover are silently skipped, exactly as the serial loop
// always did.
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

// readsOverlap reports whether any read hits the committed write set.
func readsOverlap(reads, writes map[state.AccessKey]struct{}) bool {
	a, b := reads, writes
	if len(b) < len(a) {
		a, b = b, a
	}
	for k := range a {
		if _, ok := b[k]; ok {
			return true
		}
	}
	return false
}
