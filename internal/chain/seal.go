package chain

import (
	"context"
	"time"

	"legalchain/internal/ethtypes"
	"legalchain/internal/xtrace"
)

// sealLocked finishes a block whose transactions have executed on the
// live state: state and receipt roots, the writer-owned indexes, the
// journal append (and any snapshot or state-store commit), cold-data
// eviction and head-view publication, in that order. Both sealing paths
// (SendTransactionCtx, MineBlock) call it with bc.mu held; the block is
// fully queryable when it returns.
func (bc *Blockchain) sealLocked(ctx context.Context, header *ethtypes.Header, included []*ethtypes.Transaction, receipts []*ethtypes.Receipt, sealStart time.Time) *ethtypes.Block {
	rootStart := time.Now()
	_, rootSp := xtrace.Start(ctx, "chain", "stateRoot")
	header.StateRoot = bc.st.Root()
	rootSp.End()
	mStateRootSeconds.ObserveSince(rootStart)
	header.ReceiptRoot = DeriveReceiptRoot(receipts)
	block := &ethtypes.Block{Header: header, Transactions: included}
	bc.installBlockLocked(block, receipts)
	bc.persistBlockLocked(ctx, block, receipts)
	bc.evictColdLocked()
	bc.publishHeadLocked()
	mSealSeconds.ObserveSince(sealStart)
	mBlocksSealed.Inc()
	mTxsExecuted.Add(uint64(len(included)))
	mHeadBlock.Set(int64(header.Number))
	return block
}

// evictColdLocked bounds resident memory after a block lands: clean
// account objects beyond maxResident drop out of the live state (they
// read back through the state store's cache), and block bodies older
// than retainBlocks evict to the block log together with their logs.
// Both evictions require the evicted data to be durably committed, so
// a latched persist error freezes eviction. Slices are reallocated,
// never truncated in place — published views keep their own headers
// over the old backing array.
func (bc *Blockchain) evictColdLocked() {
	if bc.persistErr != nil {
		return
	}
	if bc.stateStore != nil {
		bc.st.EvictCold(bc.maxResident)
	}
	if bc.retainBlocks == 0 || bc.db == nil || uint64(len(bc.blocks)) <= bc.retainBlocks {
		return
	}
	head := bc.blocks[len(bc.blocks)-1].Number()
	newBase := head - bc.retainBlocks + 1
	cut := int(newBase - bc.blocksBase)
	if cut <= 0 {
		return
	}
	nb := make([]*ethtypes.Block, len(bc.blocks)-cut)
	copy(nb, bc.blocks[cut:])
	bc.blocks = nb
	nr := make([][]*ethtypes.Receipt, len(bc.rcpts)-cut)
	copy(nr, bc.rcpts[cut:])
	bc.rcpts = nr
	bc.blocksBase = newBase
	mBlocksEvicted.Add(uint64(cut))
	keep := 0
	for keep < len(bc.allLogs) && bc.allLogs[keep].BlockNumber < newBase {
		keep++
	}
	if keep > 0 {
		nl := make([]*ethtypes.Log, len(bc.allLogs)-keep)
		copy(nl, bc.allLogs[keep:])
		bc.allLogs = nl
	}
}

// installBlockLocked appends a sealed or replayed block and its
// receipts to the writer-owned indexes, stamping the block hash into
// every receipt and log.
func (bc *Blockchain) installBlockLocked(block *ethtypes.Block, receipts []*ethtypes.Receipt) {
	blockHash := block.Hash()
	newReceipts := make(map[ethtypes.Hash]*ethtypes.Receipt, len(receipts))
	newTxs := make(map[ethtypes.Hash]*ethtypes.Transaction, len(block.Transactions))
	for i, rcpt := range receipts {
		rcpt.BlockHash = blockHash
		for _, l := range rcpt.Logs {
			l.BlockHash = blockHash
		}
		newReceipts[rcpt.TxHash] = rcpt
		newTxs[block.Transactions[i].Hash()] = block.Transactions[i]
		bc.allLogs = append(bc.allLogs, rcpt.Logs...)
	}
	bc.receipts = bc.receipts.with(newReceipts)
	bc.txs = bc.txs.with(newTxs)
	bc.blocks = append(bc.blocks, block)
	bc.rcpts = append(bc.rcpts, receipts)
	bc.byHash = bc.byHash.with1(blockHash, block.Number())
}

// blockHashFnLocked captures a BLOCKHASH resolver over the writer-owned
// chain: resident blocks resolve against the captured slice, evicted
// ones through the block log.
func (bc *Blockchain) blockHashFnLocked() func(uint64) ethtypes.Hash {
	blocks := bc.blocks
	base := bc.blocksBase
	db := bc.db
	return func(n uint64) ethtypes.Hash {
		if n >= base && n-base < uint64(len(blocks)) {
			return blocks[n-base].Hash()
		}
		if n < base && db != nil {
			// Evicted to the block log; reads are lock-free (pread).
			if rec, err := db.ReadRecord(n); err == nil {
				return rec.Block().Hash()
			}
		}
		return ethtypes.Hash{}
	}
}
