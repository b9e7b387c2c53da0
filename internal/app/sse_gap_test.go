package app

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"legalchain/internal/chain"
	"legalchain/internal/web3"
	"legalchain/internal/xtrace"
)

// stallHandler is a slow-trace log handler that holds the first
// "subFanout" trace it sees until release closes.
type stallHandler struct {
	once          sync.Once
	held, release chan struct{}
}

func (h *stallHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *stallHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *stallHandler) WithGroup(string) slog.Handler            { return h }

func (h *stallHandler) Handle(_ context.Context, r slog.Record) error {
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "root" && strings.HasSuffix(a.Value.String(), "subFanout") {
			h.once.Do(func() { close(h.held); <-h.release })
			return false
		}
		return true
	})
	return nil
}

// stallHubPump holds the chain's hub pump inside the fan-out that
// trigger causes, until the returned release is called. The pump ends
// each fan-out with a root span; with a 1 ns slow-trace threshold that
// span's End logs to the slow-trace logger, which holds it. Events
// published meanwhile pile up in the hub queue, which sheds its oldest
// once full.
func stallHubPump(t *testing.T, trigger func()) (release func()) {
	t.Helper()
	h := &stallHandler{held: make(chan struct{}), release: make(chan struct{})}
	var once sync.Once
	release = func() { once.Do(func() { close(h.release) }) }
	xtrace.SetEnabled(true)
	xtrace.SetSlowThreshold(time.Nanosecond)
	xtrace.SetLogger(slog.New(h))
	t.Cleanup(func() {
		release()
		xtrace.SetLogger(nil)
		xtrace.SetSlowThreshold(0)
		xtrace.SetEnabled(false)
		xtrace.Reset()
	})
	trigger()
	select {
	case <-h.held:
	case <-time.After(5 * time.Second):
		t.Fatal("the hub pump never reached the slow-trace logger")
	}
	return release
}

// TestSSEHeadsHubOverflowGap: a heads stream whose hub events were shed
// (the hub queue overflowed while the pump was held) recovers from the
// newest view: the blocks it still holds arrive once and in order, and
// the evicted ones the block log cannot serve are one gap frame whose
// missed count and resume height account for them.
func TestSSEHeadsHubOverflowGap(t *testing.T) {
	dir := t.TempDir()
	const retain = 4
	a := rigPersist(t, func(b *web3.LocalBackend) web3.Backend { return b },
		chain.PersistConfig{DataDir: dir, NoSync: true, RetainBlocks: retain})
	srv := httptest.NewServer(a.Handler())
	t.Cleanup(srv.Close)
	b := newBrowser(t, srv)
	b.register("laggard", "pw")
	bc := appChain(t, a)

	stream := openStream(t, b, "/api/v1/heads", nil)
	if f := stream.next(5 * time.Second); f.event != "head" || f.id != strconv.FormatUint(bc.BlockNumber(), 10) {
		t.Fatalf("first frame %q id %q, want the current head", f.event, f.id)
	}
	release := stallHubPump(t, func() { bc.AdjustTime(1) })
	const blocks = 40
	for i := 0; i < blocks; i++ {
		bc.MineBlock()
	}
	for i := 0; i < 5000; i++ { // more head events than the hub queue holds: the blocks' events are shed
		bc.AdjustTime(1)
	}
	head := bc.BlockNumber()
	segs, _ := filepath.Glob(filepath.Join(dir, "blocks-*"))
	for _, p := range segs { // no evicted block can be read back
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, make([]byte, fi.Size()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	release()

	for want := head - retain + 1; want <= head; want++ {
		if f := stream.next(5 * time.Second); f.event != "head" || f.id != strconv.FormatUint(want, 10) {
			t.Fatalf("frame %q id %q, want head %d", f.event, f.id, want)
		}
	}
	f := stream.next(5 * time.Second)
	var gap struct{ Missed, Resume uint64 }
	if err := json.Unmarshal([]byte(f.data), &gap); err != nil || f.event != "gap" {
		t.Fatalf("frame %q %s, want a gap frame", f.event, f.data)
	}
	if gap.Missed != blocks-retain || gap.Resume != head {
		t.Errorf("gap frame %+v, want missed %d, resume %d", gap, blocks-retain, head)
	}
	stream.none(100 * time.Millisecond)
}
