package seglog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

const prefix = "test-"

func payload(i int) []byte {
	return []byte(fmt.Sprintf("payload %03d %s", i, bytes.Repeat([]byte{'x'}, i%7)))
}

// openLog opens dir's log, collecting a copy of every payload replayed.
func openLog(t testing.TB, dir string, segSize int64) (*Log, [][]byte, *Report) {
	t.Helper()
	var got [][]byte
	l, rep, err := Open(dir, prefix, segSize, func(_ Pos, p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, got, rep
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, prefix+"*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func appendN(t *testing.T, l *Log, from, to int) []Pos {
	t.Helper()
	var pos []Pos
	for i := from; i < to; i++ {
		p, err := l.Append(payload(i))
		if err != nil {
			t.Fatal(err)
		}
		pos = append(pos, p...)
	}
	return pos
}

func checkPayloads(t *testing.T, got [][]byte, from, to int) {
	t.Helper()
	if len(got) != to-from {
		t.Fatalf("replayed %d payloads, want %d", len(got), to-from)
	}
	for i, p := range got {
		if !bytes.Equal(p, payload(from+i)) {
			t.Fatalf("payload %d = %q", from+i, p)
		}
	}
}

func TestAppendRotateReadReopen(t *testing.T) {
	dir := t.TempDir()
	l, got, rep := openLog(t, dir, 200)
	if len(got) != 0 || rep.Dropped() || len(segFiles(t, dir)) != 1 {
		t.Fatalf("fresh log: %d payloads, %+v, %v", len(got), rep, segFiles(t, dir))
	}
	pos := appendN(t, l, 0, 30)
	// A batch lands in one write, after at most one rotation.
	batch, err := l.Append(payload(30), payload(31), payload(32))
	if err != nil {
		t.Fatal(err)
	}
	pos = append(pos, batch...)
	if batch[1].Off != batch[0].Off+batch[0].Bytes() {
		t.Fatalf("batch frames not adjacent: %+v", batch)
	}
	for i, p := range pos {
		if p.Index != uint64(i) {
			t.Fatalf("frame %d has index %d", i, p.Index)
		}
		back, err := l.Read(p)
		if err != nil || !bytes.Equal(back, payload(i)) {
			t.Fatalf("Read(%+v) = %q, %v", p, back, err)
		}
	}
	segs := segFiles(t, dir)
	if len(segs) < 3 {
		t.Fatalf("expected rotation at 200 bytes, got %d segments", len(segs))
	}
	// Segments are named by the index of their first frame.
	var size int64
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		size += fi.Size()
	}
	if l.Size() != size {
		t.Fatalf("Size %d, files hold %d", l.Size(), size)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.Append(payload(0)); err == nil {
		t.Fatal("append to a closed log")
	}

	var idx []uint64
	l2, rep, err := Open(dir, prefix, 200, func(p Pos, _ []byte) error {
		idx = append(idx, p.Index)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rep.Dropped() || rep.Frames != 33 || rep.Segments != len(segs) || len(idx) != 33 || idx[32] != 32 {
		t.Fatalf("reopen: %+v, indexes %v", rep, idx)
	}
	for _, seg := range segs {
		var first uint64
		fmt.Sscanf(filepath.Base(seg), prefix+"%010d.seg", &first)
		if p := pos[first]; p.Off != 0 {
			t.Fatalf("segment %s: frame %d at offset %d", filepath.Base(seg), first, p.Off)
		}
	}
}

// A payload the scan would call damage is refused before anything is
// written: the log reopens with every earlier frame and drops nothing.
func TestAppendRefusesOversizedPayload(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openLog(t, dir, 0)
	appendN(t, l, 0, 3)
	if _, err := l.Append(payload(3), make([]byte, MaxPayload+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized append: %v", err)
	}
	appendN(t, l, 3, 5)
	l.Close()
	l2, got, rep := openLog(t, dir, 0)
	defer l2.Close()
	if rep.Dropped() {
		t.Fatalf("reopen dropped data: %+v", rep)
	}
	checkPayloads(t, got, 0, 5)
}

func TestReadChecksCRC(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openLog(t, dir, 0)
	defer l.Close()
	pos := appendN(t, l, 0, 3)
	seg := segFiles(t, dir)[0]
	data, _ := os.ReadFile(seg)
	data[pos[1].Off+HeaderSize+2] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Read(pos[1]); err == nil {
		t.Fatal("damaged frame read back")
	}
	if _, err := l.Read(pos[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Read(Pos{Index: 3}); err == nil {
		t.Fatal("read past the end")
	}
}

// Open repairs to the longest valid prefix: the damaged segment is
// truncated (or deleted when nothing in it survives) and every later one
// is deleted, and the repair sticks.
func TestOpenRepairs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, segs []string)
		keep   int // frames that survive
	}{
		{"torn tail", func(t *testing.T, segs []string) { chop(t, segs[len(segs)-1], 3) }, 19},
		{"flipped byte in segment 1", func(t *testing.T, segs []string) { flip(t, segs[1], HeaderSize+1) }, 5},
		{"garbage first segment", func(t *testing.T, segs []string) {
			os.WriteFile(segs[0], []byte("garbage"), 0o644)
		}, 0},
		{"missing middle segment", func(t *testing.T, segs []string) { os.Remove(segs[2]) }, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, _ := openLog(t, dir, 120)
			appendN(t, l, 0, 20)
			l.Close()
			segs := segFiles(t, dir)
			if len(segs) != 4 {
				t.Fatalf("setup: %d segments, want 4 of 5 frames", len(segs))
			}
			tc.damage(t, segs)
			l, got, rep := openLog(t, dir, 120)
			checkPayloads(t, got, 0, tc.keep)
			if !rep.Dropped() || rep.Reason == "" || rep.Frames != tc.keep {
				t.Fatalf("report: %+v", rep)
			}
			// Appends continue the prefix and survive the next open.
			appendN(t, l, tc.keep, tc.keep+2)
			l.Close()
			l, got, rep = openLog(t, dir, 120)
			defer l.Close()
			checkPayloads(t, got, 0, tc.keep+2)
			if rep.Dropped() {
				t.Fatalf("repair not sticky: %+v", rep)
			}
		})
	}
}

func chop(t *testing.T, path string, n int64) {
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}

func flip(t *testing.T, path string, off int) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A payload the caller rejects stops the scan like damage does.
func TestOpenStopsAtCallerError(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openLog(t, dir, 0)
	appendN(t, l, 0, 6)
	l.Close()
	n := 0
	l, rep, err := Open(dir, prefix, 0, func(_ Pos, p []byte) error {
		if bytes.Equal(p, payload(4)) {
			return errors.New("rejected")
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if n != 4 || rep.Frames != 4 || rep.Reason != "rejected" || rep.DroppedBytes == 0 {
		t.Fatalf("%d frames, report %+v", n, rep)
	}
}

func TestTruncate(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openLog(t, dir, 120)
	pos := appendN(t, l, 0, 20) // four segments of five frames
	for _, cut := range []int{17, 15, 10, 3} {
		if err := l.Truncate(pos[cut]); err != nil {
			t.Fatal(err)
		}
		if p := appendN(t, l, cut, cut+1); p[0] != pos[cut] {
			t.Fatalf("append after cut %d landed at %+v, want %+v", cut, p[0], pos[cut])
		}
		if err := l.Truncate(pos[cut]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Truncate(Pos{Index: 99}); err != nil { // past the end: nothing to do
		t.Fatal(err)
	}
	l.Close()
	l, got, rep := openLog(t, dir, 120)
	checkPayloads(t, got, 0, 3)
	if rep.Dropped() || len(segFiles(t, dir)) != 1 {
		t.Fatalf("after cuts: %+v, %v", rep, segFiles(t, dir))
	}
	if err := l.Truncate(Pos{}); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Fatalf("emptied log holds %d bytes", l.Size())
	}
	l.Close()
}

func TestRewrite(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openLog(t, dir, 120)
	pos := appendN(t, l, 0, 12)

	// A failed fill leaves the old log as it was.
	if err := l.Rewrite(func() error {
		if _, err := l.Append(payload(100)); err != nil {
			return err
		}
		return errors.New("fill failed")
	}); err == nil {
		t.Fatal("failed fill reported success")
	}
	before := segFiles(t, dir)

	// Keep the even frames: read them from the old segments, append them
	// to the new.
	err := l.Rewrite(func() error {
		for i := 0; i < 12; i += 2 {
			p, err := l.Read(pos[i])
			if err != nil {
				return err
			}
			if _, err := l.Append(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	after := segFiles(t, dir)
	if filepath.Base(after[0]) != prefix+"0000000012.seg" || len(before) != 3 {
		t.Fatalf("segments before %v, after %v", before, after)
	}
	if _, err := l.Read(pos[0]); err == nil {
		t.Fatal("a frame of a dropped segment read back")
	}
	appendN(t, l, 50, 51)
	l.Close()

	var idx []uint64
	var got [][]byte
	l, rep, err := Open(dir, prefix, 120, func(p Pos, b []byte) error {
		idx = append(idx, p.Index)
		got = append(got, append([]byte(nil), b...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if rep.Dropped() || len(got) != 7 || idx[0] != 12 || idx[6] != 18 || !bytes.Equal(got[6], payload(50)) {
		t.Fatalf("rewritten log: %+v, indexes %v", rep, idx)
	}
	for i := 0; i < 6; i++ {
		if !bytes.Equal(got[i], payload(2*i)) {
			t.Fatalf("rewritten frame %d = %q", i, got[i])
		}
	}
}

// reframe is the scan's inverse: the frames that carry payloads.
func reframe(payloads [][]byte) []byte {
	var out []byte
	for _, p := range payloads {
		out = appendFrame(out, p)
	}
	return out
}

func scanAll(data []byte) ([][]byte, int64, error) {
	var out [][]byte
	valid, err := scanFrames(data, func(_ int64, p []byte) error {
		out = append(out, p)
		return nil
	})
	return out, valid, err
}

// FuzzScan drives the parser every store shares. On one segment's
// bytes: no panic, the valid prefix is within the data and is exactly
// the re-framed payloads, and a frame appended after it scans back
// after them. Split into two segments, the second named gap frames past
// where the first ends: Open replays exactly the frames the scan rules
// allow, repairs so the next open drops nothing, and keeps a frame
// appended after the repair.
func FuzzScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, split uint16, gap uint8) {
		payloads, valid, err := scanAll(data)
		if valid < 0 || valid > int64(len(data)) || (err == nil) != (valid == int64(len(data))) {
			t.Fatalf("valid %d of %d bytes, err %v", valid, len(data), err)
		}
		if !bytes.Equal(reframe(payloads), data[:valid]) {
			t.Fatal("re-framed payloads differ from the valid prefix")
		}
		extended := appendFrame(append([]byte(nil), data[:valid]...), []byte("appended"))
		again, v2, err := scanAll(extended)
		if err != nil || v2 != int64(len(extended)) || len(again) != len(payloads)+1 || string(again[len(payloads)]) != "appended" {
			t.Fatalf("rescan after append: %d payloads, valid %d of %d, %v", len(again), v2, len(extended), err)
		}

		cut := int(split) % (len(data) + 1)
		head, _, headErr := scanAll(data[:cut])
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, prefix+"0000000000.seg"), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		want := head
		if second := uint64(len(head)) + uint64(gap); second > 0 {
			name := fmt.Sprintf("%s%010d.seg", prefix, second)
			if err := os.WriteFile(filepath.Join(dir, name), data[cut:], 0o644); err != nil {
				t.Fatal(err)
			}
			if headErr == nil && gap == 0 {
				tail, _, _ := scanAll(data[cut:])
				want = append(want, tail...)
			}
		}
		l, got, rep := openLog(t, dir, 0)
		l.Close()
		if rep.Frames != len(want) || !bytes.Equal(reframe(got), reframe(want)) {
			t.Fatalf("Open replayed %d frames, want %d (%+v)", len(got), len(want), rep)
		}
		l, got, rep = openLog(t, dir, 0)
		if rep.Dropped() || len(got) != len(want) {
			t.Fatalf("second open: %d frames, %+v", len(got), rep)
		}
		if _, err := l.Append([]byte("appended")); err != nil {
			t.Fatal(err)
		}
		l.Close()
		l, got, rep = openLog(t, dir, 0)
		l.Close()
		if rep.Dropped() || len(got) != len(want)+1 || string(got[len(want)]) != "appended" {
			t.Fatalf("after append: %d frames, %+v", len(got), rep)
		}
	})
}
