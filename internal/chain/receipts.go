package chain

import (
	"legalchain/internal/ethtypes"
	"legalchain/internal/rlp"
	"legalchain/internal/trie"
)

// DeriveReceiptRoot computes the block header's receipt root the way
// Ethereum derives it: a (non-secure) Merkle Patricia trie keyed by
// rlp(txIndex) with the RLP-encoded receipt as the value. Both the
// instant-seal path (SendTransaction) and the batch-mining path
// (MineBlock) commit to their receipts through this single derivation,
// so a one-tx block mined either way produces the same root.
func DeriveReceiptRoot(receipts []*ethtypes.Receipt) ethtypes.Hash {
	tr := trie.New()
	for i, r := range receipts {
		tr.Put(rlp.Encode(rlp.Uint(uint64(i))), r.EncodeRLP())
	}
	return tr.Hash()
}
