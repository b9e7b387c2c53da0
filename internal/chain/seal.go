package chain

import (
	"context"
	"time"

	"legalchain/internal/ethtypes"
	"legalchain/internal/xtrace"
)

// sealLocked finishes a block whose transactions have executed on the
// live state: transaction, state and receipt roots, the writer-owned
// indexes, the
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
	header.TxRoot = ethtypes.TxRootOf(receiptTxHashes(receipts))
	block := &ethtypes.Block{Header: header, Transactions: included}
	bc.timeOffset = 0 // the header took it
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
// than retainBlocks evict to the block log together with their
// receipts. Both evictions require the evicted data to be durably
// committed, so a latched persist error freezes eviction. Slices are
// reallocated, never truncated in place — published views keep their
// own headers over the old backing array.
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
}

// installBlockLocked appends a sealed or replayed block and its
// receipts to the writer-owned chain, stamping the block hash into
// every receipt and log, each transaction's position into the position
// index (keyed by its receipt's TxHash) and each log's into the log
// index.
func (bc *Blockchain) installBlockLocked(block *ethtypes.Block, receipts []*ethtypes.Receipt) {
	blockHash := block.Hash()
	positions := make(map[ethtypes.Hash]txPos, len(block.Transactions))
	var tips map[ethtypes.Hash]int
	for i, rcpt := range receipts {
		rcpt.BlockHash = blockHash
		for j, l := range rcpt.Logs {
			l.BlockHash = blockHash
			k := addrKey(l.Address)
			prev, ok := tips[k]
			if !ok {
				if prev, ok = bc.logTip.get(k); !ok {
					prev = -1
				}
			}
			if tips == nil {
				tips = map[ethtypes.Hash]int{}
			}
			tips[k] = len(bc.logs)
			bc.logs = append(bc.logs, logPos{block: block.Number(), rcpt: uint32(i), log: uint32(j), prev: prev})
		}
		positions[rcpt.TxHash] = txPos{block: block.Number(), index: i}
	}
	bc.txPos = bc.txPos.with(positions)
	bc.logTip = bc.logTip.with(tips)
	bc.blocks = append(bc.blocks, block)
	bc.rcpts = append(bc.rcpts, receipts)
	bc.byHash = bc.byHash.with1(blockHash, block.Number())
}

// receiptTxHashes lists the transaction hashes the receipts carry, in
// order: the block's transaction hashes, each computed once.
func receiptTxHashes(receipts []*ethtypes.Receipt) []ethtypes.Hash {
	hashes := make([]ethtypes.Hash, len(receipts))
	for i, r := range receipts {
		hashes[i] = r.TxHash
	}
	return hashes
}
