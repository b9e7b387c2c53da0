// Package blockdb is the durable persistence layer of the devnet chain:
// an append-only block log of RLP records, one per sealed block, fsync'd
// on seal, plus periodic state snapshots that bound startup replay. The
// chain journals every sealed block here and recovers on open by loading
// the latest valid snapshot and re-executing only the blocks after it.
//
// The log is a seglog under the name prefix "blocks-": record n is the
// log's frame n, so a segment is named by the number of its first block.
// Corruption handling is seglog's, prefix-oriented: Open keeps the
// longest verifiable prefix of records — a torn tail, a flipped byte
// inside a frame, or an undecodable or misnumbered record stops the
// scan, and everything after it is dropped. Open never fails because of
// a damaged tail; it reports what was discarded instead.
package blockdb

import (
	"fmt"
	"sync"
	"time"

	"legalchain/internal/seglog"
)

const segPrefix = "blocks-"

// Options tunes the log.
type Options struct {
	// SegmentSize is the rotation threshold in bytes (0 = seglog's
	// default, 4 MiB).
	SegmentSize int64
	// NoSync skips the per-append fsync. Only for tests and benchmarks;
	// a production chain must keep the sync-on-seal guarantee.
	NoSync bool
}

// Log is the block log. Methods are safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	dir  string
	opts Options
	log  *seglog.Log
	pos  []seglog.Pos // one per record, in order
}

// Open opens (creating if needed) the log in dir and returns the
// longest verifiable prefix of records together with a report of
// anything that had to be dropped to get there. The log is repaired in
// place.
func Open(dir string, opts Options) (*Log, []*Record, *seglog.Report, error) {
	l := &Log{dir: dir, opts: opts}
	var recs []*Record
	log, rep, err := seglog.Open(dir, segPrefix, opts.SegmentSize, func(pos seglog.Pos, payload []byte) error {
		rec, err := DecodeRecord(payload)
		if err != nil {
			return err
		}
		if want := uint64(len(recs)); rec.Header.Number != want {
			return fmt.Errorf("record number %d, want %d", rec.Header.Number, want)
		}
		recs = append(recs, rec)
		l.pos = append(l.pos, pos)
		return nil
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("blockdb: %w", err)
	}
	l.log = log
	return l, recs, rep, nil
}

// Append journals one record and fsyncs before returning (unless
// NoSync).
func (l *Log) Append(rec *Record) error {
	appendStart := time.Now()
	defer mAppendSeconds.ObserveSince(appendStart)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.log == nil {
		return fmt.Errorf("blockdb: log is closed")
	}
	if want := uint64(len(l.pos)); rec.Header.Number != want {
		return fmt.Errorf("blockdb: append out of order: record %d, want %d", rec.Header.Number, want)
	}
	pos, err := l.log.Append(rec.Encode())
	if err != nil {
		return fmt.Errorf("blockdb: %w", err)
	}
	if pos[0].Off == 0 && len(l.pos) > 0 {
		mRotations.Inc() // only a rotation puts a later record at a segment's start
	}
	if !l.opts.NoSync {
		syncStart := time.Now()
		if err := l.log.Sync(); err != nil {
			return fmt.Errorf("blockdb: %w", err)
		}
		mFsyncSeconds.ObserveSince(syncStart)
	}
	mAppends.Inc()
	l.pos = append(l.pos, pos[0])
	return nil
}

// ReadRecord re-reads record n from disk (CRC-checked) and decodes it —
// the read-through path for block bodies that have been evicted from
// memory. Frames are immutable once written, and Rewind only ever cuts
// records the caller no longer references.
func (l *Log) ReadRecord(n uint64) (*Record, error) {
	l.mu.Lock()
	if n >= uint64(len(l.pos)) || l.log == nil {
		l.mu.Unlock()
		return nil, fmt.Errorf("blockdb: record %d out of range (have %d)", n, len(l.pos))
	}
	pos, log := l.pos[n], l.log
	l.mu.Unlock()
	payload, err := log.Read(pos)
	if err != nil {
		return nil, fmt.Errorf("blockdb: record %d: %w", n, err)
	}
	rec, err := DecodeRecord(payload)
	if err != nil {
		return nil, fmt.Errorf("blockdb: record %d: %w", n, err)
	}
	return rec, nil
}

// Rewind truncates the log to its first keep records — used when
// recovery finds that records past some point fail state verification
// even though their frames are intact.
func (l *Log) Rewind(keep int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if keep < 0 || keep > len(l.pos) {
		return fmt.Errorf("blockdb: rewind to %d out of range (have %d)", keep, len(l.pos))
	}
	if keep == len(l.pos) {
		return nil
	}
	if err := l.log.Truncate(l.pos[keep]); err != nil {
		return fmt.Errorf("blockdb: rewind: %w", err)
	}
	l.pos = l.pos[:keep]
	return nil
}

// Dir returns the directory the log lives in.
func (l *Log) Dir() string { return l.dir }

// Close syncs and closes the log. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.log == nil {
		return nil
	}
	err := l.log.Sync()
	if cerr := l.log.Close(); err == nil {
		err = cerr
	}
	l.log = nil
	return err
}
