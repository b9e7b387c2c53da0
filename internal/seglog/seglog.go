// Package seglog is the append-only segment log under every durable
// store of the node: the block journal (blockdb), the state store's KV
// records (statestore), the watchtower's event log (watch) and the
// document store's journal (docstore). It is the only code that frames,
// scans, repairs, rotates, reads back, truncates and compacts an
// append-only file; its callers decide only what goes in a payload and
// when to call Sync.
//
// A frame is an 8-byte header — payload length and CRC32-C of the
// payload, both uint32 big-endian — followed by the payload. A log is a
// directory of segments named <prefix>%010d.seg by the index of their
// first frame. Open scans the segments in order and keeps the longest
// verifiable prefix: a torn frame, a CRC mismatch, a segment that does
// not start at the running frame count, or a payload the caller rejects
// stops the scan, the damaged segment is truncated there and every later
// segment is deleted. Open never fails because of damage; it reports
// what it dropped.
package seglog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

const (
	// HeaderSize is the size of a frame header: length, then CRC32-C.
	HeaderSize = 8
	// MaxPayload bounds one payload. The scan treats a longer length
	// field as damage, so Append refuses to write one.
	MaxPayload = 32 << 20
	// DefaultSegmentSize is the rotation threshold when the caller
	// passes none: small enough that a damaged segment loses little,
	// large enough to keep the directory tidy.
	DefaultSegmentSize = 4 << 20
	segSuffix          = ".seg"
)

// ErrTooLarge is returned by Append for a payload over MaxPayload.
var ErrTooLarge = errors.New("seglog: payload exceeds the frame limit")

var errClosed = errors.New("seglog: log is closed")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends one CRC-framed payload to dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [HeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	return append(append(dst, hdr[:]...), payload...)
}

// EncodeFrame returns payload as one frame, for a store that keeps a
// single framed record outside any log (blockdb's state snapshots).
func EncodeFrame(payload []byte) []byte { return appendFrame(nil, payload) }

// DecodeFrame returns the payload of data when data is exactly one
// intact frame.
func DecodeFrame(data []byte) ([]byte, error) {
	var frames [][]byte
	if _, err := scanFrames(data, func(_ int64, p []byte) error {
		frames = append(frames, p)
		return nil
	}); err != nil {
		return nil, err
	}
	if len(frames) != 1 {
		return nil, fmt.Errorf("seglog: %d frames, want one", len(frames))
	}
	return frames[0], nil
}

// scanFrames walks the frames in data, calling fn with each frame's
// offset and payload. It returns the offset just past the last whole
// frame fn accepted and, when it stopped before the end of data, why: a
// torn header or payload, a length over MaxPayload, a CRC mismatch or
// fn's error. A nil error means valid == len(data).
func scanFrames(data []byte, fn func(off int64, payload []byte) error) (valid int64, err error) {
	off := 0
	for off < len(data) {
		if len(data)-off < HeaderSize {
			return int64(off), fmt.Errorf("torn frame header: %d trailing bytes", len(data)-off)
		}
		n := int(binary.BigEndian.Uint32(data[off : off+4]))
		sum := binary.BigEndian.Uint32(data[off+4 : off+8])
		if n > MaxPayload {
			return int64(off), fmt.Errorf("frame length %d exceeds limit", n)
		}
		if len(data)-off-HeaderSize < n {
			return int64(off), fmt.Errorf("torn frame payload: have %d of %d bytes", len(data)-off-HeaderSize, n)
		}
		payload := data[off+HeaderSize : off+HeaderSize+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			return int64(off), fmt.Errorf("frame CRC mismatch at offset %d", off)
		}
		if err := fn(int64(off), payload); err != nil {
			return int64(off), err
		}
		off += HeaderSize + n
	}
	return int64(off), nil
}

// Pos addresses one frame: its index in the log, the byte offset of its
// header within its segment, and its payload length.
type Pos struct {
	Index uint64
	Off   int64
	Len   uint32
}

// Bytes is the frame's size on disk, header included.
func (p Pos) Bytes() int64 { return HeaderSize + int64(p.Len) }

// Report describes what Open scanned and what it dropped to repair the
// log.
type Report struct {
	Segments        int    // segment files found
	Frames          int    // intact frames handed to the caller
	DroppedBytes    int64  // bytes truncated or deleted
	DroppedSegments int    // whole segments deleted
	Reason          string // why the scan stopped early, if it did
}

// Dropped reports whether Open discarded anything.
func (r *Report) Dropped() bool { return r.DroppedBytes > 0 || r.DroppedSegments > 0 }

type segment struct {
	first uint64   // index of the segment's first frame
	f     *os.File // read-write handle, open for the log's lifetime
	size  int64
}

// Log is one open segment log. Appends, truncation and rewrites take
// the write lock; Read and Sync share a read lock, so reads run beside
// an fsync and never see a handle closed under them.
type Log struct {
	mu      sync.RWMutex
	dir     string
	prefix  string
	segSize int64
	segs    []*segment // ascending; the last is the active segment
	next    uint64     // index the next appended frame gets
}

func (l *Log) path(first uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%010d%s", l.prefix, first, segSuffix))
}

// Open opens (creating if needed) the log of prefix's segments in dir
// and calls fn with every intact payload in order; fn must copy a
// payload it keeps. The scan stops at the first damage or fn error, the
// log is repaired to the prefix before it, and the report says what was
// dropped. A log with no surviving segment starts empty at index 0.
// segmentSize is the rotation threshold (0 = DefaultSegmentSize).
func Open(dir, prefix string, segmentSize int64, fn func(pos Pos, payload []byte) error) (*Log, *Report, error) {
	if segmentSize <= 0 {
		segmentSize = DefaultSegmentSize
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("seglog: %w", err)
	}
	l := &Log{dir: dir, prefix: prefix, segSize: segmentSize}
	rep, err := l.scan(fn)
	if err != nil {
		l.closeAll()
		return nil, nil, err
	}
	return l, rep, nil
}

// scan replays and repairs the segments for Open, leaving each kept
// segment open.
func (l *Log) scan(fn func(pos Pos, payload []byte) error) (*Report, error) {
	firsts, err := l.list()
	if err != nil {
		return nil, err
	}
	rep := &Report{Segments: len(firsts)}
	if len(firsts) > 0 {
		l.next = firsts[0]
	}
	drop := 0 // firsts[drop:] go: everything after the damage
	for i, first := range firsts {
		if first != l.next {
			rep.Reason = fmt.Sprintf("segment %s starts at frame %d, want %d", filepath.Base(l.path(first)), first, l.next)
			break
		}
		data, err := os.ReadFile(l.path(first))
		if err != nil {
			return nil, fmt.Errorf("seglog: %w", err)
		}
		size, scanErr := scanFrames(data, func(off int64, payload []byte) error {
			if err := fn(Pos{Index: l.next, Off: off, Len: uint32(len(payload))}, payload); err != nil {
				return err
			}
			l.next++
			rep.Frames++
			return nil
		})
		drop = i + 1
		if scanErr != nil {
			rep.Reason = scanErr.Error()
			if size == 0 { // nothing in it survived: it goes with the rest
				drop = i
				break
			}
			rep.DroppedBytes += int64(len(data)) - size
		}
		f, err := os.OpenFile(l.path(first), os.O_RDWR, 0)
		if err != nil {
			return nil, fmt.Errorf("seglog: %w", err)
		}
		l.segs = append(l.segs, &segment{first: first, f: f, size: size})
		if scanErr != nil {
			if err := truncateFile(f, size); err != nil {
				return nil, err
			}
			break
		}
	}
	// Newest first, so a crash part-way leaves a log that still scans as
	// a prefix.
	for i := len(firsts) - 1; i >= drop; i-- {
		if fi, err := os.Stat(l.path(firsts[i])); err == nil {
			rep.DroppedBytes += fi.Size()
		}
		if err := os.Remove(l.path(firsts[i])); err != nil {
			return nil, fmt.Errorf("seglog: drop segment: %w", err)
		}
		rep.DroppedSegments++
	}
	if rep.DroppedSegments > 0 {
		if err := SyncDir(l.dir); err != nil {
			return nil, err
		}
	}
	if len(l.segs) == 0 {
		l.next = 0
		return rep, l.createLocked(0)
	}
	return rep, nil
}

// list returns the first-frame indexes of prefix's segments, ascending.
// Files whose names do not parse are ignored.
func (l *Log) list() ([]uint64, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("seglog: %w", err)
	}
	var firsts []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, l.prefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var first uint64
		if _, err := fmt.Sscanf(name, l.prefix+"%010d"+segSuffix, &first); err != nil || name != filepath.Base(l.path(first)) {
			continue
		}
		firsts = append(firsts, first)
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
	return firsts, nil
}

func (l *Log) active() *segment { return l.segs[len(l.segs)-1] }

// createLocked starts a fresh, empty active segment at index first.
func (l *Log) createLocked(first uint64) error {
	f, err := os.OpenFile(l.path(first), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("seglog: create segment: %w", err)
	}
	l.segs = append(l.segs, &segment{first: first, f: f})
	return SyncDir(l.dir)
}

// rotateLocked syncs the active segment and starts the next one.
func (l *Log) rotateLocked() error {
	if err := l.active().f.Sync(); err != nil {
		return fmt.Errorf("seglog: sync before rotate: %w", err)
	}
	return l.createLocked(l.next)
}

// removeLocked closes seg and deletes its file.
func (l *Log) removeLocked(seg *segment) error {
	seg.f.Close()
	if err := os.Remove(l.path(seg.first)); err != nil {
		return fmt.Errorf("seglog: drop segment: %w", err)
	}
	return nil
}

// Append frames the payloads and writes them, in one write, to the
// active segment, after rotating to a fresh segment when they would
// carry a non-empty one past the segment size (rotation syncs the old
// segment first). It does not sync. A payload over MaxPayload fails the
// call before anything is written. It returns each frame's position.
func (l *Log) Append(payloads ...[]byte) ([]Pos, error) {
	n := 0
	for _, p := range payloads {
		if len(p) > MaxPayload {
			return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(p))
		}
		n += HeaderSize + len(p)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.segs == nil {
		return nil, errClosed
	}
	if seg := l.active(); seg.size > 0 && seg.size+int64(n) > l.segSize {
		if err := l.rotateLocked(); err != nil {
			return nil, err
		}
	}
	seg := l.active()
	buf := make([]byte, 0, n)
	pos := make([]Pos, len(payloads))
	for i, p := range payloads {
		pos[i] = Pos{Index: l.next + uint64(i), Off: seg.size + int64(len(buf)), Len: uint32(len(p))}
		buf = appendFrame(buf, p)
	}
	// WriteAt at the logical end: bytes a failed write left behind are
	// overwritten by the next append, or cut by the next Open's scan.
	if _, err := seg.f.WriteAt(buf, seg.size); err != nil {
		return nil, fmt.Errorf("seglog: append: %w", err)
	}
	seg.size += int64(n)
	l.next += uint64(len(payloads))
	return pos, nil
}

// Sync flushes the active segment to stable storage.
func (l *Log) Sync() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.segs == nil {
		return errClosed
	}
	if err := l.active().f.Sync(); err != nil {
		return fmt.Errorf("seglog: sync: %w", err)
	}
	return nil
}

// find returns the segment holding frame index, or -1.
func (l *Log) find(index uint64) int {
	return sort.Search(len(l.segs), func(i int) bool { return l.segs[i].first > index }) - 1
}

// Read returns the payload of the frame at pos, checking its length and
// CRC.
func (l *Log) Read(pos Pos) ([]byte, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	i := l.find(pos.Index)
	if i < 0 || pos.Index >= l.next {
		return nil, fmt.Errorf("seglog: frame %d is not in the log", pos.Index)
	}
	buf := make([]byte, pos.Bytes())
	if _, err := l.segs[i].f.ReadAt(buf, pos.Off); err != nil {
		return nil, fmt.Errorf("seglog: read frame %d: %w", pos.Index, err)
	}
	payload := buf[HeaderSize:]
	if binary.BigEndian.Uint32(buf[0:4]) != pos.Len || crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(buf[4:8]) {
		return nil, fmt.Errorf("seglog: frame %d is damaged", pos.Index)
	}
	return payload, nil
}

// Truncate drops the frame at pos and every frame after it, so the
// next append gets pos.Index. A position before the first frame (the
// zero Pos, say) empties the log; one at or past the end is a no-op.
// Later segments are deleted newest first, and the cut is synced.
func (l *Log) Truncate(pos Pos) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.segs == nil {
		return errClosed
	}
	if pos.Index >= l.next {
		return nil
	}
	if pos.Index < l.segs[0].first {
		pos = Pos{Index: l.segs[0].first}
	}
	i := l.find(pos.Index)
	keep := i + 1
	if pos.Off == 0 && i > 0 {
		keep = i // the cut is a segment boundary: append to the one before
	}
	removed := len(l.segs) > keep
	for len(l.segs) > keep {
		if err := l.removeLocked(l.active()); err != nil {
			return err
		}
		l.segs = l.segs[:len(l.segs)-1]
	}
	if keep > i {
		if err := truncateFile(l.segs[i].f, pos.Off); err != nil {
			return err
		}
		l.segs[i].size = pos.Off
	}
	l.next = pos.Index
	if removed {
		return SyncDir(l.dir)
	}
	return nil
}

// Rewrite replaces the log with the frames fill appends: it starts a
// fresh segment at the running frame count, calls fill (which appends
// the caller's live set with Append and may Read the old frames), syncs
// the new frames, then deletes every older segment, oldest first. A
// crash at any point leaves old frames followed by a prefix of the new
// ones, so replaying the rewritten records over the old must converge.
// If fill fails, the new frames are truncated away and the old log is
// left as it was. Appends from anyone but fill must wait until Rewrite
// returns.
func (l *Log) Rewrite(fill func() error) error {
	l.mu.Lock()
	start := Pos{Index: l.next}
	err := errClosed
	if l.segs != nil {
		err = nil
		if l.active().size > 0 {
			err = l.rotateLocked()
		}
	}
	l.mu.Unlock()
	if err != nil {
		return err
	}

	if err := fill(); err != nil {
		if terr := l.Truncate(start); terr != nil {
			return errors.Join(err, terr)
		}
		return err
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.active().f.Sync(); err != nil {
		return fmt.Errorf("seglog: rewrite sync: %w", err)
	}
	for l.segs[0].first < start.Index {
		if err := l.removeLocked(l.segs[0]); err != nil {
			return err
		}
		l.segs = l.segs[1:]
	}
	return SyncDir(l.dir)
}

// Size returns the bytes held across the log's segments.
func (l *Log) Size() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var n int64
	for _, s := range l.segs {
		n += s.size
	}
	return n
}

// Close closes every segment without syncing; callers sync first when
// their policy asks. Further calls fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.closeAll()
	l.segs = nil
	return err
}

func (l *Log) closeAll() error {
	var first error
	for _, s := range l.segs {
		if err := s.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func truncateFile(f *os.File, size int64) error {
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("seglog: truncate: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("seglog: sync after truncate: %w", err)
	}
	return nil
}

// SyncDir makes the creation, rename or removal of a file in dir
// durable: a segment here, a snapshot in blockdb.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("seglog: sync dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("seglog: sync dir: %w", err)
	}
	return nil
}
