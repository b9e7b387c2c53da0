package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"legalchain/internal/blockdb"
	"legalchain/internal/chain"
	"legalchain/internal/core"
	"legalchain/internal/docstore"
	"legalchain/internal/ethtypes"
	"legalchain/internal/ipfs"
	"legalchain/internal/statestore"
)

// finishDurable is the part of lifecycle_durable after the timed loop:
// bytes on disk, a copy of the data directory taken while everything is
// still open (what a crash would leave), a clean Close, and repeated
// restarts from fresh copies of the crash image, each checked against
// the state the node had before.
func finishDurable(r *run, env *lcEnv, done int, diskBefore int64, tally chainTally, before, after map[string]float64) error {
	bc := env.bc
	r.set("disk_bytes_per_lifecycle", float64(dirBytes(env.dir)-diskBefore)/float64(done))
	if tally.blocks > 0 {
		fsyncs := after["legalchain_blockdb_fsync_seconds_count"] - before["legalchain_blockdb_fsync_seconds_count"]
		r.note("fsync_policy_observed", fmt.Sprintf("%.0f blockdb fsyncs for %d sealed blocks", fsyncs, tally.blocks))
	}
	mode := "snapshot + bounded replay"
	if _, err := os.Stat(filepath.Join(env.dir, "chain", "state")); err == nil {
		mode = "state store"
	}
	r.note("durable_state_mode_observed", mode)

	wantHead, wantRoot, wantRows := bc.BlockNumber(), bc.StateRoot(), env.store.Count(core.TableContracts)
	image := filepath.Join(r.cfg.dir, "crash-image")
	if err := copyDir(env.dir, image); err != nil {
		return fmt.Errorf("crash copy: %w", err)
	}

	if r.cfg.trace {
		probeSigning(r, bc, env.ks, tally.raw)
		probeEVMCall(r, bc, env.clients[0].latest[0], env.clients[0].tenant)
		probeStorage(r, bc)
	}

	t0 := time.Now()
	closeErr := bc.Close()
	r.set("chain.close.ms", float64(time.Since(t0).Nanoseconds())/1e6)
	r.check(closeErr == nil, "chain close: %v", closeErr)
	r.check(env.store.Close() == nil, "docstore close failed")

	for k := 0; k < r.cfg.reopens; k++ {
		work := filepath.Join(r.cfg.dir, fmt.Sprintf("reopen-%d", k))
		if err := copyDir(image, work); err != nil {
			return fmt.Errorf("reopen copy: %w", err)
		}
		err := r.op("restart", func() error {
			bc2, err := chain.Open(env.genesis, chain.WithPersistence(chain.PersistConfig{DataDir: filepath.Join(work, "chain")}))
			if err != nil {
				return err
			}
			defer bc2.Close()
			t1 := time.Now()
			store, err := docstore.Open(filepath.Join(work, "db"))
			if err != nil {
				return err
			}
			defer store.Close()
			r.rec.add("docstore.reopen", time.Since(t1))
			if _, err := ipfs.NewFileStore(filepath.Join(work, "ipfs")); err != nil {
				return err
			}
			head, rows := bc2.BlockNumber(), store.Count(core.TableContracts)
			if root := bc2.StateRoot(); head != wantHead || root != wantRoot || rows != wantRows {
				return fmt.Errorf("restart %d: head %d root %s rows %d, want %d %s %d", k, head, root, rows, wantHead, wantRoot, wantRows)
			}
			if rep := bc2.RecoveryReport(); rep != nil {
				r.set("chain.replayed_blocks", float64(rep.BlocksReplayed))
				r.check(!rep.Dropped(), "restart %d dropped data: %s", k, rep.DroppedReason)
			}
			return nil
		})
		os.RemoveAll(work)
		if err != nil {
			break
		}
	}
	r.setTiming("restart_ms", "restart", 0.5, 1)
	r.setTiming("docstore.reopen.ms", "docstore.reopen", 0.5, 1)
	return nil
}

// probeStorage replays what the run wrote into the storage layers'
// exported functions, single-threaded, in the run's scratch directory
// (same filesystem as the data directory).
func probeStorage(r *run, bc *chain.Blockchain) {
	n := r.cfg.probes

	// blockdb: Append+Sync of the run's own blocks, renumbered from 0.
	dir := filepath.Join(r.cfg.dir, "probe-blockdb")
	log, _, _, err := blockdb.Open(dir, blockdb.Options{})
	if r.check(err == nil, "probe blockdb open: %v", err) {
		v := bc.View()
		head := v.BlockNumber()
		var bytes int
		for i := uint64(0); i < uint64(n) && i < head; i++ {
			b, _ := v.BlockByNumber(head - i)
			hdr := *b.Header
			hdr.Number = i
			rec := &blockdb.Record{Header: &hdr, Txs: b.Transactions, Receipts: v.ReceiptsOf(head - i)}
			bytes += len(rec.Encode())
			t0 := time.Now()
			err := log.Append(rec) // fsyncs before returning, the log's default
			if r.check(err == nil, "probe blockdb append: %v", err) {
				r.rec.add("blockdb.append_sync", time.Since(t0))
			}
		}
		log.Close()
		r.setTiming("blockdb.append_sync.p50_us", "blockdb.append_sync", 0.5, 1e3)
		if c := r.rec.count("blockdb.append_sync"); c > 0 {
			r.set("blockdb.bytes_per_block", float64(bytes)/float64(c))
		}
	}
	os.RemoveAll(dir)

	// statestore: one Commit per block of the accounts and slots a
	// single-transaction block touches (sender, contract, coinbase; four
	// slots; the trie nodes on their paths).
	dir = filepath.Join(r.cfg.dir, "probe-statestore")
	ss, err := statestore.Open(dir, statestore.Options{})
	if r.check(err == nil, "probe statestore open: %v", err) {
		for i := 0; i < n; i++ {
			var b statestore.Batch
			for a := 0; a < 3; a++ {
				addr := ethtypes.BytesToAddress([]byte{byte(a + 1)})
				b.PutAccount(addr, &statestore.AccountRecord{Nonce: uint64(i), Balance: []byte{byte(i >> 8), byte(i), 1}})
				if a == 1 {
					for s := 0; s < 4; s++ {
						b.PutSlot(addr, ethtypes.Keccak256([]byte{byte(s), byte(i), byte(i >> 8)}), []byte{byte(i), 1})
					}
				}
			}
			for k := 0; k < 8; k++ {
				enc := make([]byte, 100)
				enc[0], enc[1], enc[2] = byte(k), byte(i), byte(i>>8)
				b.PutNode(ethtypes.Keccak256(enc), enc)
			}
			t0 := time.Now()
			err := ss.Commit(&b, statestore.Anchor{Gen: uint64(i + 1), Number: uint64(i + 1)})
			if r.check(err == nil, "probe statestore commit: %v", err) {
				r.rec.add("statestore.commit", time.Since(t0))
			}
		}
		ss.Close()
		r.setTiming("statestore.commit.p50_us", "statestore.commit", 0.5, 1e3)
	}
	os.RemoveAll(dir)

	probeDocstore(r, filepath.Join(r.cfg.dir, "probe-docstore"))
}

// probeDocstore times registry-row Put and Get. With a directory the
// store is WAL-backed (append + fsync per Put); with "" it is the
// in-memory store the in-memory workloads use, and only Get is reported.
func probeDocstore(r *run, dir string) {
	ds, err := docstore.Open(dir)
	if !r.check(err == nil, "probe docstore open: %v", err) {
		return
	}
	row := core.ContractRow{Name: "BaseRental", Version: 1, State: core.StateActive, ABICID: "Qm-probe"}
	for i := 0; i < r.cfg.probes; i++ {
		row.Address = ethtypes.BytesToAddress([]byte{byte(i), byte(i >> 8), 7}).Hex()
		t0 := time.Now()
		err := ds.Put(core.TableContracts, row.Address, row)
		if r.check(err == nil, "probe docstore put: %v", err) {
			r.rec.add("docstore.put", time.Since(t0))
		}
		var got core.ContractRow
		t0 = time.Now()
		err = ds.Get(core.TableContracts, row.Address, &got)
		if r.check(err == nil && got.Address == row.Address, "probe docstore get: %v", err) {
			r.rec.add("docstore.get", time.Since(t0))
		}
	}
	ds.Close()
	r.setTiming("docstore.get.p50_us", "docstore.get", 0.5, 1e3)
	if dir != "" {
		r.setTiming("docstore.put.p50_us", "docstore.put", 0.5, 1e3)
		os.RemoveAll(dir)
	}
}
