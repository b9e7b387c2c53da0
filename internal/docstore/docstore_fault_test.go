package docstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"legalchain/internal/seglog"
)

// walFile returns the journal's first segment in a store dir; the
// fault tests write fewer records than one segment holds.
func walFile(dir string) string { return filepath.Join(dir, "wal-0000000000.seg") }

// seedStore writes n rows and closes the store, leaving a journal behind.
func seedStore(t *testing.T, dir string, n int) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.Put("rows", key(i), map[string]int{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func key(i int) string { return string(rune('a' + i)) }

func countRows(t *testing.T, dir string) (int, *Store) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s.Count("rows"), s
}

func TestWALTornTailRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 8)

	// Tear the last frame, as a crash mid-write would.
	fi, err := os.Stat(walFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walFile(dir), fi.Size()-9); err != nil {
		t.Fatal(err)
	}

	n, s := countRows(t, dir)
	defer s.Close()
	if n != 7 {
		t.Fatalf("recovered %d rows, want 7", n)
	}
	// The torn bytes were removed: appends go after the valid prefix.
	if err := s.Put("rows", "zz", map[string]int{"i": 99}); err != nil {
		t.Fatal(err)
	}
}

// A flipped byte inside a record — even one that leaves valid JSON, as
// a flip inside a string does — fails the frame's CRC and stops replay.
func TestWALCorruptMiddleStopsThere(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 8)

	data, err := os.ReadFile(walFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff // damage a record in the middle
	if err := os.WriteFile(walFile(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}

	n, s := countRows(t, dir)
	defer s.Close()
	if n == 0 || n >= 8 {
		t.Fatalf("recovered %d rows, want a proper prefix", n)
	}
}

// TestWALAppendsAfterRecoverySurvive is the regression for the stranded-
// records bug: without truncation, rows written after recovering from a
// corrupt journal sat behind the damage and vanished on the next restart.
func TestWALAppendsAfterRecoverySurvive(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 4)

	fi, _ := os.Stat(walFile(dir))
	if err := os.Truncate(walFile(dir), fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	// First reopen: 3 rows survive; write 2 more.
	n, s := countRows(t, dir)
	if n != 3 {
		t.Fatalf("first reopen: %d rows, want 3", n)
	}
	for i := 10; i < 12; i++ {
		if err := s.Put("rows", key(i), map[string]int{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Second reopen: the post-recovery rows must still be there.
	n, s = countRows(t, dir)
	defer s.Close()
	if n != 5 {
		t.Fatalf("second reopen: %d rows, want 5", n)
	}
	var row map[string]int
	if err := s.Get("rows", key(11), &row); err != nil || row["i"] != 11 {
		t.Fatalf("post-recovery row lost: %v %v", row, err)
	}
}

// An intact frame whose record names an unknown op is damage the CRC
// cannot see: replay stops there.
func TestWALUnknownOpTreatedAsDamage(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 3)

	f, err := os.OpenFile(walFile(dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(seglog.EncodeFrame([]byte(`{"op":"merge","table":"rows","key":"x"}`)))
	f.Close()

	n, s := countRows(t, dir)
	defer s.Close()
	if n != 3 {
		t.Fatalf("recovered %d rows, want 3", n)
	}
}

func TestWALWholeFileGarbage(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 3)
	if err := os.WriteFile(walFile(dir), []byte("\x00\x01\x02 not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, s := countRows(t, dir)
	defer s.Close()
	if n != 0 {
		t.Fatalf("recovered %d rows from garbage, want 0", n)
	}
	// Store still works.
	if err := s.Put("rows", "fresh", map[string]int{"i": 1}); err != nil {
		t.Fatal(err)
	}
}

// TestWALSurvivesCompactionDamage: damage after a compaction only loses
// the rows journaled after it; the compacted rows stay.
func TestWALSurvivesCompactionDamage(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Put("rows", key(i), map[string]int{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// The compaction started a segment at frame 4 and dropped frame 0's.
	seg := filepath.Join(dir, "wal-0000000004.seg")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	compacted := fi.Size()
	for i := 4; i < 8; i++ {
		if err := s.Put("rows", key(i), map[string]int{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Destroy every record journaled after the compaction.
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for i := compacted; i < int64(len(data)); i++ {
		data[i] = 'x'
	}
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	n, s2 := countRows(t, dir)
	defer s2.Close()
	if n != 4 {
		t.Fatalf("recovered %d rows, want the 4 compacted ones", n)
	}
}

// A directory in the JSONL layout is refused, naming the file, rather
// than opened as an empty store beside the old rows.
func TestOldJournalLayoutRefused(t *testing.T) {
	for _, old := range []string{"wal.jsonl", "snapshot.json"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, old), []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), old) {
			t.Fatalf("%s: %v", old, err)
		}
		if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg")); len(segs) != 0 {
			t.Fatalf("%s: a journal was created beside the old one: %v", old, segs)
		}
	}
}

// TestCompactionCrashImages reopens the images a crash during Compact
// can leave — the directory before it (A) and after it (B) both present,
// and the same with B's last segment torn mid-frame — and requires the
// rows the compacted store holds.
func TestCompactionCrashImages(t *testing.T) {
	work := t.TempDir()
	s, err := Open(work)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 12; i++ {
			if err := s.Put("rows", key(i), map[string]int{"i": i, "round": round}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Delete("rows", key(round)); err != nil {
			t.Fatal(err)
		}
	}
	want := rows(s)
	imageA := t.TempDir()
	copyDir(t, work, imageA)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	imageB := t.TempDir()
	copyDir(t, work, imageB)
	s.Close()

	segsB, _ := filepath.Glob(filepath.Join(imageB, "wal-*.seg"))
	if len(segsB) != 1 {
		t.Fatalf("compaction left %d segments, want 1", len(segsB))
	}
	both := t.TempDir()
	copyDir(t, imageA, both)
	copyDir(t, imageB, both)
	torn := t.TempDir()
	copyDir(t, both, torn)
	last := filepath.Join(torn, filepath.Base(segsB[0]))
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	for _, image := range []struct{ name, dir string }{{"B", imageB}, {"A+B", both}, {"A+B torn", torn}} {
		r, err := Open(image.dir)
		if err != nil {
			t.Fatalf("%s: %v", image.name, err)
		}
		if got := rows(r); got != want {
			t.Errorf("%s reopened to rows\n%s\nwant\n%s", image.name, got, want)
		}
		r.Close()
	}
}

// rows renders the "rows" table in key order.
func rows(s *Store) string {
	var b strings.Builder
	for _, k := range s.Keys("rows") {
		var v map[string]int
		s.Get("rows", k, &v)
		fmt.Fprintf(&b, "%s=%v ", k, v)
	}
	return b.String()
}

// copyDir copies the flat directory src into dst, overwriting files of
// the same name.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
