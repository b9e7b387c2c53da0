package app

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"legalchain/internal/chain"
	"legalchain/internal/web3"
)

// writeGate holds every server-side socket write while shut, as a peer
// that stopped reading does once the socket buffers fill: the stream
// blocks inside a write, at a point the test picks.
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
	srv := httptest.NewUnstartedServer(h)
	srv.Listener = gatedListener{srv.Listener, g}
	srv.Start()
	t.Cleanup(func() { g.open(); srv.Close() })
	return srv, g
}

// TestSSEHeadsHubOverflowGap: a heads stream that blocked on the socket
// while the chain kept sealing overflows its own hub ring, and recovers
// from the newest view: the block it was writing arrives, the blocks
// the view still holds arrive once and in order, and the evicted ones
// the block log cannot serve are one gap frame whose missed count and
// resume height account for them.
func TestSSEHeadsHubOverflowGap(t *testing.T) {
	dir := t.TempDir()
	const retain = 4
	a := rigPersist(t, func(b *web3.LocalBackend) web3.Backend { return b },
		chain.PersistConfig{DataDir: dir, NoSync: true, RetainBlocks: retain})
	srv, gate := gatedServer(t, a.Handler())
	b := newBrowser(t, srv)
	b.register("laggard", "pw")
	bc := appChain(t, a)

	stream := openStream(t, b, "/api/v1/heads", nil)
	start := bc.BlockNumber()
	if f := stream.next(5 * time.Second); f.event != "head" || f.id != strconv.FormatUint(start, 10) {
		t.Fatalf("first frame %q id %q, want the current head", f.event, f.id)
	}
	// The stream blocks writing the first new block; the rest overflow
	// its ring of 64 and all but the last retain are evicted.
	const blocks = 80
	gate.close()
	bc.MineBlock()
	gate.awaitBlocked(t)
	for i := 1; i < blocks; i++ {
		bc.MineBlock()
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
	gate.open()

	delivered := []uint64{start + 1}
	for n := head - retain + 1; n <= head; n++ {
		delivered = append(delivered, n)
	}
	for _, want := range delivered {
		if f := stream.next(5 * time.Second); f.event != "head" || f.id != strconv.FormatUint(want, 10) {
			t.Fatalf("frame %q id %q, want head %d", f.event, f.id, want)
		}
	}
	f := stream.next(5 * time.Second)
	var gap struct{ Missed, Resume uint64 }
	if err := json.Unmarshal([]byte(f.data), &gap); err != nil || f.event != "gap" {
		t.Fatalf("frame %q %s, want a gap frame", f.event, f.data)
	}
	if want := head - retain - start - 1; gap.Missed != want || gap.Resume != head {
		t.Errorf("gap frame %+v, want missed %d, resume %d", gap, want, head)
	}
	stream.none(100 * time.Millisecond)
}
