// Package docstore is the data tier of the paper's architecture (the
// MySQL role in Table I): an embedded document database with named
// tables and JSON values, journaled for durability. The application
// stores users, uploaded artifacts and the contract registry here,
// off-chain; a registry row names the IPFS CIDs of its version's ABI,
// storage layout and legal document.
package docstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"legalchain/internal/seglog"
)

// Errors returned by the store.
var (
	ErrNotFound = errors.New("docstore: key not found")
	ErrClosed   = errors.New("docstore: store is closed")
)

const (
	segPrefix = "wal-"
	// compactEvery is how many journaled records trigger a compaction.
	compactEvery = 4096
)

// walRecord is one journaled mutation, the JSON payload of one frame.
type walRecord struct {
	Op    string          `json:"op"` // "put" | "del"
	Table string          `json:"table"`
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value,omitempty"`
}

// Store is the embedded database. In-memory state is authoritative; the
// journal — a seglog of put/del records under the name prefix "wal-" —
// recovers it across restarts. A Store with empty dir is purely
// in-memory (used by tests and the quickstart).
type Store struct {
	mu     sync.RWMutex
	dir    string
	tables map[string]map[string]json.RawMessage
	log    *seglog.Log
	walN   int // records since the last compaction (after Open: those holding no live row)
	closed bool
}

// Open creates or recovers a store rooted at dir. Empty dir means
// in-memory only. A directory holding the JSONL journal layout this
// version no longer reads is refused, naming the file.
func Open(dir string) (*Store, error) {
	s := &Store{dir: dir, tables: map[string]map[string]json.RawMessage{}}
	if dir == "" {
		return s, nil
	}
	for _, old := range []string{"wal.jsonl", "snapshot.json"} {
		if _, err := os.Stat(filepath.Join(dir, old)); err == nil {
			return nil, fmt.Errorf("docstore: %s holds %s, from the JSONL journal layout this version does not read; move it out of the directory to start an empty store there",
				dir, old)
		}
	}
	replayStart := time.Now()
	log, rep, err := seglog.Open(dir, segPrefix, 0, func(_ seglog.Pos, payload []byte) error {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("docstore: bad record: %w", err)
		}
		if rec.Op != "put" && rec.Op != "del" {
			return fmt.Errorf("docstore: unknown op %q", rec.Op)
		}
		s.applyLocked(&rec)
		return nil
	})
	mReplaySeconds.ObserveSince(replayStart)
	if err != nil {
		return nil, fmt.Errorf("docstore: %w", err)
	}
	s.log = log
	// The journal does not mark where the last compaction ended; count
	// the records that hold no live row instead (zero right after one).
	s.walN = rep.Frames
	for _, tbl := range s.tables {
		s.walN -= len(tbl)
	}
	return s, nil
}

func (s *Store) applyLocked(rec *walRecord) {
	switch rec.Op {
	case "put":
		tbl := s.tables[rec.Table]
		if tbl == nil {
			tbl = map[string]json.RawMessage{}
			s.tables[rec.Table] = tbl
		}
		tbl[rec.Key] = append(json.RawMessage(nil), rec.Value...)
	case "del":
		if tbl := s.tables[rec.Table]; tbl != nil {
			delete(tbl, rec.Key)
		}
	}
}

// writeLocked journals rec (appended and fsync'd) when the store is
// durable, applies it, and compacts every compactEvery records.
func (s *Store) writeLocked(rec *walRecord) error {
	if s.log == nil {
		s.applyLocked(rec)
		return nil
	}
	appendStart := time.Now()
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := s.log.Append(payload); err != nil {
		return fmt.Errorf("docstore: %w", err)
	}
	syncStart := time.Now()
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("docstore: %w", err)
	}
	mWalFsyncSeconds.ObserveSince(syncStart)
	mWalAppendSeconds.ObserveSince(appendStart)
	s.applyLocked(rec)
	s.walN++
	if s.walN >= compactEvery {
		return s.compactLocked()
	}
	return nil
}

// compactLocked rewrites the journal as one put record per live row.
func (s *Store) compactLocked() error {
	mCompactions.Inc()
	err := s.log.Rewrite(func() error {
		for table, tbl := range s.tables {
			for key, value := range tbl {
				payload, err := json.Marshal(&walRecord{Op: "put", Table: table, Key: key, Value: value})
				if err != nil {
					return err
				}
				if _, err := s.log.Append(payload); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("docstore: compact: %w", err)
	}
	s.walN = 0
	return nil
}

// Compact forces a compaction of the journal.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.log == nil {
		return nil
	}
	return s.compactLocked()
}

// Close closes the store; every write was already synced.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.log != nil {
		return s.log.Close()
	}
	return nil
}

// Put stores value (marshalled to JSON) under table/key.
func (s *Store) Put(table, key string, value interface{}) error {
	raw, err := json.Marshal(value)
	if err != nil {
		return fmt.Errorf("docstore: marshal: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.writeLocked(&walRecord{Op: "put", Table: table, Key: key, Value: raw})
}

// Get unmarshals the value at table/key into out.
func (s *Store) Get(table, key string, out interface{}) error {
	raw, err := s.GetRaw(table, key)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

// GetRaw returns the JSON value at table/key for the caller to decode.
// A stored value is never modified (a Put stores a new one), so it is
// read outside the lock; the caller must not modify it either.
func (s *Store) GetRaw(table, key string) (json.RawMessage, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	raw, ok := s.tables[table][key]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, table, key)
	}
	return raw, nil
}

// Has reports whether table/key exists.
func (s *Store) Has(table, key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tbl := s.tables[table]
	if tbl == nil {
		return false
	}
	_, ok := tbl[key]
	return ok
}

// Delete removes table/key; deleting a missing key is not an error.
func (s *Store) Delete(table, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.writeLocked(&walRecord{Op: "del", Table: table, Key: key})
}

// Keys lists the keys of a table, sorted.
func (s *Store) Keys(table string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tbl := s.tables[table]
	out := make([]string, 0, len(tbl))
	for k := range tbl {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Scan visits every key/value in a table in key order; fn decodes the
// raw JSON itself. Returning false stops the scan.
func (s *Store) Scan(table string, fn func(key string, raw json.RawMessage) bool) {
	s.mu.RLock()
	keys := make([]string, 0, len(s.tables[table]))
	for k := range s.tables[table] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rows := make([]json.RawMessage, len(keys))
	for i, k := range keys {
		rows[i] = s.tables[table][k]
	}
	s.mu.RUnlock()
	for i, k := range keys {
		if !fn(k, rows[i]) {
			return
		}
	}
}

// Count returns the number of rows in a table.
func (s *Store) Count(table string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tables[table])
}
