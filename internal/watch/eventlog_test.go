package watch

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"legalchain/internal/seglog"
)

// logSegment is the event log's first segment; these tests write fewer
// records than one segment holds.
func logSegment(dir string) string { return filepath.Join(dir, "events-0000000000.seg") }

func TestEventLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := openEventLog(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []*Event{
		{Seq: 1, Block: 1, Type: "created", Contract: "0xabc", Template: "BaseRental", RentWei: "100"},
		{Seq: 2, Block: 2, Type: "signed", Contract: "0xabc"},
		{Seq: 3, Block: 2, Type: "anchor", RuleState: map[string]RuleState{"r": {Consecutive: 2, Firing: true}}},
	}
	for _, ev := range want {
		if err := l.append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	var got []*Event
	l2, err := openEventLog(dir, func(ev *Event) {
		cp := *ev
		got = append(got, &cp)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d of %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || got[i].Type != want[i].Type || got[i].Contract != want[i].Contract {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if got[2].RuleState["r"].Consecutive != 2 || !got[2].RuleState["r"].Firing {
		t.Fatalf("rule state lost: %+v", got[2].RuleState)
	}
}

// TestEventLogTornTail verifies the truncate-to-valid recovery: a
// half-written frame at the tail is discarded and appends continue
// cleanly after it.
func TestEventLogTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := openEventLog(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := l.append(&Event{Seq: i, Block: i, Type: "created"}); err != nil {
			t.Fatal(err)
		}
	}
	intact := l.size()
	if err := l.append(&Event{Seq: 4, Block: 4, Type: "signed"}); err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last frame in half.
	path := logSegment(dir)
	full, _ := os.ReadFile(path)
	if err := os.WriteFile(path, full[:intact+3], 0o644); err != nil {
		t.Fatal(err)
	}

	var seqs []uint64
	l2, err := openEventLog(dir, func(ev *Event) { seqs = append(seqs, ev.Seq) })
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 {
		t.Fatalf("replayed %v, want the 3 intact records", seqs)
	}
	if l2.size() != intact {
		t.Fatalf("size %d after truncation, want %d", l2.size(), intact)
	}
	// Appends after recovery extend the repaired log.
	if err := l2.append(&Event{Seq: 4, Block: 4, Type: "terminated"}); err != nil {
		t.Fatal(err)
	}
	if err := l2.close(); err != nil {
		t.Fatal(err)
	}
	seqs = nil
	l3, err := openEventLog(dir, func(ev *Event) { seqs = append(seqs, ev.Seq) })
	if err != nil {
		t.Fatal(err)
	}
	defer l3.close()
	if len(seqs) != 4 || seqs[3] != 4 {
		t.Fatalf("after repair+append: %v", seqs)
	}
}

// A CRC-intact frame with garbage JSON stops replay there, like a torn
// tail: everything before it survives, everything after is dropped.
func TestEventLogBadJSON(t *testing.T) {
	dir := t.TempDir()
	l, err := openEventLog(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.append(&Event{Seq: 1, Type: "created"}); err != nil {
		t.Fatal(err)
	}
	good := l.size()
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	// Append a validly framed record that is not JSON.
	f, _ := os.OpenFile(logSegment(dir), os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write(seglog.EncodeFrame([]byte("not json")))
	f.Close()

	count := 0
	l2, err := openEventLog(dir, func(*Event) { count++ })
	if err != nil {
		t.Fatal(err)
	}
	defer l2.close()
	if count != 1 || l2.size() != good {
		t.Fatalf("count=%d size=%d want 1/%d", count, l2.size(), good)
	}
}

func TestEventLogNil(t *testing.T) {
	var l *eventLog
	if err := l.append(&Event{}); err != nil {
		t.Fatal(err)
	}
	if err := l.sync(); err != nil {
		t.Fatal(err)
	}
	if l.size() != 0 {
		t.Fatal("size")
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	if l2, err := openEventLog("", nil); l2 != nil || err != nil {
		t.Fatal("empty dir should yield a nil log")
	}
}

// A directory holding the earlier single-file log is refused, naming
// the file, rather than refolded beside it.
func TestEventLogOldLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "events.log"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(nil, Config{Dir: dir}); err == nil || !strings.Contains(err.Error(), "events.log") {
		t.Fatalf("old layout: %v", err)
	}
}
