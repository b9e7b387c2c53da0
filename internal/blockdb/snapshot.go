package blockdb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"legalchain/internal/ethtypes"
	"legalchain/internal/rlp"
	"legalchain/internal/seglog"
)

const (
	snapPrefix = "state-"
	snapSuffix = ".snap"
	// snapshotsKept is how many snapshot generations survive pruning:
	// the newest plus one fallback in case the newest is damaged or
	// describes a block the repaired log no longer reaches.
	snapshotsKept = 2
)

// Snapshot is a point-in-time state capture bound to a specific block.
// State is an opaque payload (the state package's snapshot encoding);
// blockdb only frames, checksums and names it.
type Snapshot struct {
	Number    uint64
	BlockHash ethtypes.Hash
	State     []byte
}

func snapPath(dir string, number uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%010d%s", snapPrefix, number, snapSuffix))
}

// WriteSnapshot atomically writes a snapshot file (tmp + rename, CRC
// framed) and prunes old generations beyond snapshotsKept. The directory
// is synced after the rename and before the prune, so a power loss can
// never leave the older generations unlinked and the new one lost.
func WriteSnapshot(dir string, s *Snapshot) error {
	payload := rlp.Encode(rlp.List(
		rlp.Uint(s.Number),
		rlp.Bytes(s.BlockHash[:]),
		rlp.Bytes(s.State),
	))
	data := seglog.EncodeFrame(payload)
	final := snapPath(dir, s.Number)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("blockdb: snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("blockdb: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("blockdb: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("blockdb: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("blockdb: snapshot rename: %w", err)
	}
	if err := seglog.SyncDir(dir); err != nil {
		return fmt.Errorf("blockdb: snapshot: %w", err)
	}
	pruneSnapshots(dir)
	return nil
}

// listSnapshotFiles returns snapshot file numbers present in dir,
// newest first.
func listSnapshotFiles(dir string) []uint64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var nums []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		var n uint64
		if _, err := fmt.Sscanf(name, snapPrefix+"%010d"+snapSuffix, &n); err != nil {
			continue
		}
		nums = append(nums, n)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] > nums[j] })
	return nums
}

func pruneSnapshots(dir string) {
	nums := listSnapshotFiles(dir)
	for _, n := range nums[min(len(nums), snapshotsKept):] {
		os.Remove(snapPath(dir, n))
	}
}

// SnapshotNumbers returns the block numbers of the snapshot files
// present in dir, newest first, without reading any of them. Recovery
// walks this list and loads snapshots one at a time (LoadSnapshot),
// stopping at the first one that verifies — so a directory full of
// old generations costs directory-listing time, not decode time.
func SnapshotNumbers(dir string) []uint64 { return listSnapshotFiles(dir) }

// LoadSnapshot reads and verifies the single snapshot for block n. A
// CRC or decode failure returns an error; callers fall back to the
// next-older snapshot (a damaged snapshot must never block recovery,
// it just costs more replay).
func LoadSnapshot(dir string, n uint64) (*Snapshot, error) {
	return readSnapshot(snapPath(dir, n))
}

func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := seglog.DecodeFrame(data)
	if err != nil {
		return nil, fmt.Errorf("blockdb: damaged snapshot: %w", err)
	}
	it, err := rlp.Decode(payload)
	if err != nil {
		return nil, err
	}
	if it.Kind() != rlp.KindList || it.Len() != 3 {
		return nil, errors.New("blockdb: snapshot must be a 3-item list")
	}
	s := &Snapshot{}
	if s.Number, err = it.At(0).AsUint64(); err != nil {
		return nil, err
	}
	if s.BlockHash, err = asHash(it.At(1)); err != nil {
		return nil, err
	}
	if it.At(2).Kind() != rlp.KindString {
		return nil, errors.New("blockdb: snapshot state must be a string item")
	}
	s.State = append([]byte(nil), it.At(2).Str()...)
	return s, nil
}
