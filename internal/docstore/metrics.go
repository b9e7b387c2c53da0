package docstore

import (
	"legalchain/internal/metrics"
)

// Document-tier metrics for the journaled store.
var (
	mWalAppendSeconds = metrics.Default.Histogram("legalchain_docstore_wal_append_seconds",
		"Wall time to journal one record (write plus fsync).", nil)
	mWalFsyncSeconds = metrics.Default.Histogram("legalchain_docstore_wal_fsync_seconds",
		"Wall time of fsync calls on the journal.", nil)
	mReplaySeconds = metrics.Default.Histogram("legalchain_docstore_replay_seconds",
		"Wall time to replay the journal at startup.", nil)
	mCompactions = metrics.Default.Counter("legalchain_docstore_compactions_total",
		"Journal compactions performed (live rows rewritten, old segments dropped).")
)
