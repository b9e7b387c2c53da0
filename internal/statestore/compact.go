package statestore

import (
	"fmt"

	"legalchain/internal/ethtypes"
	"legalchain/internal/seglog"
	"legalchain/internal/trie"
)

// Compaction reclaims space from the log: superseded flat records and
// trie nodes no longer reachable from the anchored state root
// accumulate until the live set is rewritten (seglog's Rewrite) and the
// old segments are deleted.
//
// Crash safety mirrors the commit protocol. The rewritten live set ends
// with the anchor record; a crash before it leaves new frames with no
// anchor after them (Open truncates them, the old segments still carry
// the anchor), a crash after it but before the old segments are gone
// replays old-then-new, and every live key's last record is then its
// copy — the same anchor and the same live index.

const (
	// compactMinBytes is the floor below which MaybeCompact never
	// triggers — tiny stores aren't worth rewriting.
	compactMinBytes = 32 << 20
	// compactWasteFactor triggers compaction when the on-disk size
	// exceeds this multiple of the live set.
	compactWasteFactor = 2
)

// indexResolver resolves trie nodes against the index with s.mu
// already held (compaction runs entirely under the store lock).
type indexResolver struct{ s *Store }

func (r indexResolver) ResolveNode(h ethtypes.Hash) ([]byte, error) {
	p, ok := r.s.nodes[h]
	if !ok {
		return nil, ErrNotFound
	}
	return r.s.recordValue(p, 2)
}

// MaybeCompact runs Compact when the store has accumulated enough
// garbage to be worth rewriting. Returns whether it compacted.
func (s *Store) MaybeCompact() (bool, error) {
	s.mu.Lock()
	total, live := s.log.Size(), s.liveBytes
	anchored := s.hasAnchor
	s.mu.Unlock()
	if !anchored || total < compactMinBytes || total < compactWasteFactor*live {
		return false, nil
	}
	return true, s.Compact()
}

// Compact rewrites the store down to its live set: every indexed flat
// record, the codes and trie nodes reachable from the anchored root,
// and a closing anchor. Commits are blocked for the duration.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hasAnchor {
		return nil
	}

	// Mark phase: walk the account trie from the anchored root; each
	// account leaf contributes its code and its storage trie.
	liveNodes := make(map[ethtypes.Hash]struct{})
	liveCodes := make(map[ethtypes.Hash]struct{})
	var storageRoots []ethtypes.Hash
	res := indexResolver{s}
	err := trie.WalkNodeGraph(s.anchor.Root, res,
		func(h ethtypes.Hash, enc []byte) error {
			liveNodes[h] = struct{}{}
			return nil
		},
		func(value []byte) error {
			rec, err := DecodeAccountRecord(value)
			if err != nil {
				return fmt.Errorf("statestore: compact: bad account leaf: %w", err)
			}
			if _, ok := s.codes[rec.CodeHash]; ok {
				liveCodes[rec.CodeHash] = struct{}{}
			}
			storageRoots = append(storageRoots, rec.StorageRoot)
			return nil
		})
	if err != nil {
		return fmt.Errorf("statestore: compact mark: %w", err)
	}
	for _, root := range storageRoots {
		if err := trie.WalkNodeGraph(root, res, func(h ethtypes.Hash, enc []byte) error {
			liveNodes[h] = struct{}{}
			return nil
		}, nil); err != nil {
			return fmt.Errorf("statestore: compact mark storage: %w", err)
		}
	}

	// Sweep phase: copy every live record verbatim (a payload names its
	// own key) into the rewritten log, then the anchor.
	var accounts map[ethtypes.Address]seglog.Pos
	var slots map[slotKey]seglog.Pos
	var codes, nodes map[ethtypes.Hash]seglog.Pos
	err = s.log.Rewrite(func() (err error) {
		if accounts, err = copyLive(s.log, s.accounts, nil); err != nil {
			return err
		}
		if slots, err = copyLive(s.log, s.slots, nil); err != nil {
			return err
		}
		if codes, err = copyLive(s.log, s.codes, liveCodes); err != nil {
			return err
		}
		if nodes, err = copyLive(s.log, s.nodes, liveNodes); err != nil {
			return err
		}
		_, err = s.log.Append(anchorRecord(s.anchor))
		return err
	})
	if err != nil {
		return fmt.Errorf("statestore: compact: %w", err)
	}
	s.accounts, s.slots, s.codes, s.nodes = accounts, slots, codes, nodes
	s.liveBytes = s.log.Size()
	mDiskBytes.Set(s.liveBytes)
	return nil
}

// copyLive appends a copy of the record of every key of index that is
// in live (nil: every key) and returns the index of the copies.
func copyLive[K comparable](log *seglog.Log, index map[K]seglog.Pos, live map[K]struct{}) (map[K]seglog.Pos, error) {
	out := make(map[K]seglog.Pos, len(index))
	for k, p := range index {
		if _, ok := live[k]; live != nil && !ok {
			continue
		}
		payload, err := log.Read(p)
		if err != nil {
			return nil, err
		}
		np, err := log.Append(payload)
		if err != nil {
			return nil, err
		}
		out[k] = np[0]
	}
	return out, nil
}
