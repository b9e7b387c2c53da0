package obs

import (
	"time"

	"legalchain/internal/chain"
)

// ChainHealth summarises the blockchain tier for /healthz: the sealed
// head, how stale the published read view is, the txpool depth, and —
// for durable chains — what crash recovery found on the last start and
// the persistence failure that stopped journaling, if one has latched.
// devnet and rentald both merge this map into their health() hook.
func ChainHealth(bc *chain.Blockchain) map[string]interface{} {
	v := bc.View()
	head := v.Head()
	out := map[string]interface{}{
		"head": map[string]interface{}{
			"number": head.Header.Number,
			"hash":   head.Hash().Hex(),
		},
		"headViewAgeMs": time.Since(v.PublishedAt()).Milliseconds(),
		"txpool":        bc.PendingCount(),
	}
	if rep := bc.RecoveryReport(); rep != nil {
		rec := map[string]interface{}{
			"head":           rep.Head,
			"snapshotUsed":   rep.SnapshotUsed,
			"blocksReplayed": rep.BlocksReplayed,
		}
		if rep.Dropped() {
			rec["blocksDropped"] = rep.BlocksDropped
			rec["droppedReason"] = rep.DroppedReason
			rec["logDroppedBytes"] = rep.LogDroppedBytes
		}
		out["recovery"] = rec
	}
	if err := bc.PersistErr(); err != nil {
		out["persistError"] = err.Error()
	}
	return out
}
