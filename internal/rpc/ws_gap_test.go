package rpc

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/hexutil"
	"legalchain/internal/wallet"
)

// writeGate holds every server-side socket write while shut, as a peer
// that stopped reading does once the socket buffers fill: the session's
// notifier blocks inside a write, at a point the test picks.
type writeGate struct {
	mu      sync.Mutex
	shut    chan struct{} // non-nil while shut; closed by open
	blocked chan struct{} // cap 1: signalled when a write waits at the gate
}

func (g *writeGate) close() {
	g.mu.Lock()
	g.shut = make(chan struct{})
	g.mu.Unlock()
}

func (g *writeGate) open() {
	g.mu.Lock()
	if g.shut != nil {
		close(g.shut)
		g.shut = nil
	}
	g.mu.Unlock()
}

// awaitBlocked waits until a write is held at the shut gate.
func (g *writeGate) awaitBlocked(t *testing.T) {
	t.Helper()
	select {
	case <-g.blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("no write reached the shut gate")
	}
}

type gatedConn struct {
	net.Conn
	g *writeGate
}

func (c gatedConn) Write(p []byte) (int, error) {
	c.g.mu.Lock()
	shut := c.g.shut
	c.g.mu.Unlock()
	if shut != nil {
		select {
		case c.g.blocked <- struct{}{}:
		default:
		}
		<-shut
	}
	return c.Conn.Write(p)
}

type gatedListener struct {
	net.Listener
	g *writeGate
}

func (l gatedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return gatedConn{c, l.g}, nil
}

// gatedServer serves h on connections whose writes pass the returned
// gate, which starts open.
func gatedServer(t *testing.T, h http.Handler) (*httptest.Server, *writeGate) {
	t.Helper()
	g := &writeGate{blocked: make(chan struct{}, 1)}
	hs := httptest.NewUnstartedServer(h)
	hs.Listener = gatedListener{hs.Listener, g}
	hs.Start()
	t.Cleanup(func() { g.open(); hs.Close() })
	return hs, g
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

// TestWSHubOverflowGapAndResume: a WS session whose notifier blocked
// on the socket while the chain kept sealing overflows its own hub
// rings, and recovers from the newest view. newHeads resumes at the
// first block it has not delivered: the blocks the view still holds
// arrive once and in order, and the evicted ones the block log cannot
// serve are one gap notice whose missed count and resume height
// account for them; newPendingTransactions reports the hashes its full
// ring dropped as a gap notice.
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
	hs, gate := gatedServer(t, http.HandlerFunc(NewServer(bc, walletFromAccounts(accs)).ServeWS))
	c := dialWS(t, hs.URL)
	var headsID, pendID string
	json.Unmarshal(c.call("eth_subscribe", "newHeads"), &headsID)
	json.Unmarshal(c.call("eth_subscribe", "newPendingTransactions"), &pendID)
	const events = 80 // each ring holds 64

	// Heads: the notifier blocks writing the first new block; the rest
	// overflow its ring and all but the last retain are evicted.
	start := bc.BlockNumber()
	gate.close()
	bc.MineBlock()
	gate.awaitBlocked(t)
	for i := 1; i < events; i++ {
		bc.MineBlock()
	}
	head := bc.BlockNumber()
	zeroBlockLog(t, dir)
	gate.open()

	delivered := []uint64{start + 1}
	for n := head - retain + 1; n <= head; n++ {
		delivered = append(delivered, n)
	}
	for _, want := range delivered {
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
	if want := (gapNotice{missed: hexutil.EncodeUint64(head - retain - start - 1), resume: hexutil.EncodeUint64(head)}); gap.Gap.Missed != want.missed || gap.Gap.Resume != want.resume {
		t.Errorf("newHeads gap notice %+v, want %+v", gap.Gap, want)
	}
	c.noNotif(headsID, 100*time.Millisecond)

	// Pending transactions: the notifier blocks writing the first hash;
	// the ring keeps the newest 64 of the rest and counts the others.
	hashes := make([]ethtypes.Hash, events)
	gate.close()
	for i := range hashes {
		tx := &ethtypes.Transaction{Nonce: uint64(i), GasPrice: ethtypes.Gwei(1), Gas: 21000, To: &accs[1].Address, Value: ethtypes.Gwei(1)}
		if err := tx.Sign(accs[0].Key, bc.ChainID()); err != nil {
			t.Fatal(err)
		}
		if hashes[i], err = bc.SubmitTransaction(tx); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			gate.awaitBlocked(t)
		}
	}
	gate.open()

	const kept = 64
	for _, want := range append(hashes[:1:1], hashes[events-kept:]...) {
		var got string
		json.Unmarshal(c.nextNotif(pendID, 5*time.Second), &got)
		if got != want.Hex() {
			t.Fatalf("newPendingTransactions delivered %s, want %s", got, want.Hex())
		}
	}
	json.Unmarshal(c.nextNotif(pendID, 5*time.Second), &gap)
	if want := hexutil.EncodeUint64(events - kept - 1); gap.Gap.Missed != want {
		t.Errorf("newPendingTransactions gap notice reports %q missed, want %s", gap.Gap.Missed, want)
	}
	c.noNotif(pendID, 100*time.Millisecond)
}
