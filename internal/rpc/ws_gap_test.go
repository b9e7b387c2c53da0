package rpc

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/hexutil"
	"legalchain/internal/wallet"
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

// zeroBlockLog overwrites every block-log segment under dir with zeros,
// so that no evicted block can be read back.
func zeroBlockLog(t *testing.T, dir string) {
	t.Helper()
	segs, _ := filepath.Glob(filepath.Join(dir, "blocks-*"))
	if len(segs) == 0 {
		t.Fatal("no block-log segment")
	}
	for _, p := range segs {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, make([]byte, fi.Size()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWSHubOverflowGapAndResume: a WS session whose hub events were
// shed (the hub queue overflowed while the pump was held) recovers from
// the newest view. newHeads resumes at the first block it has not
// delivered: the blocks the view still holds arrive once and in order,
// and the evicted ones the block log cannot serve are one gap notice
// whose missed count and resume height account for them;
// newPendingTransactions reports the shed hashes as a gap notice.
func TestWSHubOverflowGapAndResume(t *testing.T) {
	accs := wallet.DevAccounts("ws gap test", 2)
	g := chain.DefaultGenesis()
	g.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(100))
	dir := t.TempDir()
	const retain = 4
	bc, err := chain.Open(g, chain.WithPersistence(chain.PersistConfig{DataDir: dir, NoSync: true, RetainBlocks: retain}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	ks := walletFromAccounts(accs)
	hs := httptest.NewServer(http.HandlerFunc(NewServer(bc, ks).ServeWS))
	t.Cleanup(hs.Close)
	c := dialWS(t, hs.URL)
	client, err := web3.NewClient(web3.NewLocalBackend(bc), ks)
	if err != nil {
		t.Fatal(err)
	}
	var headsID, pendID string
	json.Unmarshal(c.call("eth_subscribe", "newHeads"), &headsID)
	json.Unmarshal(c.call("eth_subscribe", "newPendingTransactions"), &pendID)
	start := bc.BlockNumber()

	release := stallHubPump(t, func() { bc.AdjustTime(1) })
	const blocks = 80
	for i := 0; i < blocks; i++ { // one pending and one head event each
		if _, err := client.Transfer(web3.TxOpts{From: accs[0].Address, Value: ethtypes.Gwei(1)}, accs[1].Address); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5000; i++ { // more head events than the hub queue holds: the blocks' events are shed
		bc.AdjustTime(1)
	}
	head := bc.BlockNumber()
	if head != start+blocks {
		t.Fatalf("head %d, want %d", head, start+blocks)
	}
	zeroBlockLog(t, dir)
	release()

	for want := head - retain + 1; want <= head; want++ {
		var n struct{ Number string }
		json.Unmarshal(c.nextNotif(headsID, 5*time.Second), &n)
		if got, _ := hexutil.DecodeUint64(n.Number); got != want {
			t.Fatalf("newHeads delivered %q, want block %d", n.Number, want)
		}
	}
	var gap struct {
		Gap struct{ Missed, Resume string }
	}
	json.Unmarshal(c.nextNotif(headsID, 5*time.Second), &gap)
	if want := (gapNotice{missed: hexutil.EncodeUint64(blocks - retain), resume: hexutil.EncodeUint64(head)}); gap.Gap.Missed != want.missed || gap.Gap.Resume != want.resume {
		t.Errorf("newHeads gap notice %+v, want %+v", gap.Gap, want)
	}
	json.Unmarshal(c.nextNotif(pendID, 5*time.Second), &gap)
	if want := hexutil.EncodeUint64(blocks); gap.Gap.Missed != want {
		t.Errorf("newPendingTransactions gap notice reports %q missed, want %s", gap.Gap.Missed, want)
	}
	c.noNotif(headsID, 100*time.Millisecond)
}
