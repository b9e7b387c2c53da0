package docstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"legalchain/internal/seglog"
)

type userRow struct {
	Name  string `json:"name"`
	Email string `json:"email"`
}

func TestPutGetDelete(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("users", "alice", userRow{Name: "Alice", Email: "a@x.io"}); err != nil {
		t.Fatal(err)
	}
	var u userRow
	if err := s.Get("users", "alice", &u); err != nil || u.Name != "Alice" {
		t.Fatalf("get: %+v %v", u, err)
	}
	if !s.Has("users", "alice") || s.Has("users", "bob") {
		t.Fatal("Has")
	}
	if err := s.Get("users", "bob", &u); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing: %v", err)
	}
	if err := s.Delete("users", "alice"); err != nil {
		t.Fatal(err)
	}
	if s.Has("users", "alice") {
		t.Fatal("delete ineffective")
	}
	// Deleting a missing key is fine.
	if err := s.Delete("users", "nobody"); err != nil {
		t.Fatal(err)
	}
}

// TestGetRawReadsItsOwnTable: GetRaw returns the bytes Put stored under
// that table and key, the same key in another table is another value,
// and a key or table that holds nothing is ErrNotFound.
func TestGetRawReadsItsOwnTable(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, tbl := range []string{"users", "admins"} {
		if err := s.Put(tbl, "alice", userRow{Name: tbl}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tbl := range []string{"users", "admins"} {
		raw, err := s.GetRaw(tbl, "alice")
		if want, _ := json.Marshal(userRow{Name: tbl}); err != nil || string(raw) != string(want) {
			t.Errorf("GetRaw(%s, alice) = %s, %v; want %s", tbl, raw, err, want)
		}
	}
	for _, c := range [][2]string{{"users", "bob"}, {"guests", "alice"}} {
		if _, err := s.GetRaw(c[0], c[1]); !errors.Is(err, ErrNotFound) {
			t.Errorf("GetRaw(%s, %s): %v, want ErrNotFound", c[0], c[1], err)
		}
	}
}

func TestKeysScanCount(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.Put("contracts", fmt.Sprintf("c%02d", i), map[string]int{"v": i})
	}
	keys := s.Keys("contracts")
	if len(keys) != 10 || keys[0] != "c00" || keys[9] != "c09" {
		t.Fatalf("keys = %v", keys)
	}
	if s.Count("contracts") != 10 {
		t.Fatal("count")
	}
	var seen int
	s.Scan("contracts", func(k string, raw json.RawMessage) bool {
		seen++
		return seen < 5
	})
	if seen != 5 {
		t.Fatalf("scan stopped at %d", seen)
	}
	if _, ok := s.tables["contracts"]; !ok || len(s.tables) != 1 {
		t.Fatalf("%d tables, want contracts alone", len(s.tables))
	}
}

func TestDurabilityAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("users", "alice", userRow{Name: "Alice"})
	s.Put("users", "bob", userRow{Name: "Bob"})
	s.Delete("users", "bob")
	s.Put("docs", "pdf1", "binary-ish content")
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var u userRow
	if err := s2.Get("users", "alice", &u); err != nil || u.Name != "Alice" {
		t.Fatal("alice lost")
	}
	if s2.Has("users", "bob") {
		t.Fatal("deleted row resurrected")
	}
	var doc string
	if err := s2.Get("docs", "pdf1", &doc); err != nil || doc != "binary-ish content" {
		t.Fatal("doc lost")
	}
}

func TestCompactionPreservesData(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	for i := 0; i < 100; i++ {
		s.Put("t", fmt.Sprintf("k%d", i), i)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// The journal is one segment of the 100 live rows, started at frame
	// 100; the segment of the original 100 puts is gone.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 || filepath.Base(segs[0]) != "wal-0000000100.seg" {
		t.Fatalf("journal after compaction: %v %v", segs, err)
	}
	s.Put("t", "after", "compact")
	s.Close()

	s2, _ := Open(dir)
	defer s2.Close()
	var v int
	if err := s2.Get("t", "k42", &v); err != nil || v != 42 {
		t.Fatal("compacted data lost")
	}
	var str string
	if err := s2.Get("t", "after", &str); err != nil || str != "compact" {
		t.Fatal("post-compact data lost")
	}
}

func TestTornWALTailIgnored(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.Put("t", "good", 1)
	s.Close()
	// Simulate a crash mid-write: append the first half of a frame.
	frame := seglog.EncodeFrame([]byte(`{"op":"put","table":"t","key":"torn","value":2}`))
	f, _ := os.OpenFile(walFile(dir), os.O_APPEND|os.O_WRONLY, 0o644)
	f.Write(frame[:len(frame)/2])
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var v int
	if err := s2.Get("t", "good", &v); err != nil || v != 1 {
		t.Fatal("good record lost")
	}
	if s2.Has("t", "torn") {
		t.Fatal("torn record applied")
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s, _ := Open("")
	s.Close()
	if err := s.Put("t", "k", 1); !errors.Is(err, ErrClosed) {
		t.Fatal("put on closed store")
	}
	var v int
	if err := s.Get("t", "k", &v); !errors.Is(err, ErrClosed) {
		t.Fatal("get on closed store")
	}
	if err := s.Close(); err != nil {
		t.Fatal("double close")
	}
}

func TestOverwrite(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	s.Put("t", "k", "v1")
	s.Put("t", "k", "v2")
	var v string
	s.Get("t", "k", &v)
	if v != "v2" {
		t.Fatalf("v = %s", v)
	}
	if s.Count("t") != 1 {
		t.Fatal("overwrite duplicated row")
	}
}

func BenchmarkPut(b *testing.B) {
	dir := b.TempDir()
	s, _ := Open(dir)
	defer s.Close()
	row := userRow{Name: "Bench", Email: "bench@example.com"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Put("users", fmt.Sprintf("u%d", i), row); err != nil {
			b.Fatal(err)
		}
	}
}

// TestConcurrentAccess hammers the store from several goroutines; the
// race detector (when enabled) and the final count validate safety.
func TestConcurrentAccess(t *testing.T) {
	s, _ := Open(t.TempDir())
	defer s.Close()
	const workers, perWorker = 8, 50
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				if err := s.Put("t", key, i); err != nil {
					done <- err
					return
				}
				var v int
				if err := s.Get("t", key, &v); err != nil {
					done <- err
					return
				}
				s.Keys("t")
				s.Count("t")
			}
			done <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if s.Count("t") != workers*perWorker {
		t.Fatalf("count = %d", s.Count("t"))
	}
}
