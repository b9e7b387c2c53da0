package app

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"legalchain/internal/chain"
	"legalchain/internal/core"
	"legalchain/internal/ethtypes"
	"legalchain/internal/web3"
)

// sseFrame is one parsed text/event-stream frame.
type sseFrame struct {
	event string
	id    string
	data  string
}

// sseReader parses frames off a live stream in a goroutine so tests
// can wait with a timeout.
type sseReader struct {
	t      *testing.T
	resp   *http.Response
	frames chan sseFrame
}

// openStream issues a streaming GET with the browser's session cookie
// and asserts the event-stream handshake.
func openStream(t *testing.T, b *browser, path string, hdr map[string]string) *sseReader {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, b.url+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := b.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("stream %s: status %d", path, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("stream %s: content-type %q", path, ct)
	}
	r := &sseReader{t: t, resp: resp, frames: make(chan sseFrame, 64)}
	go r.run()
	t.Cleanup(r.close)
	return r
}

func (r *sseReader) close() { r.resp.Body.Close() }

// run parses frames until the body closes. Comments (heartbeats) are
// skipped.
func (r *sseReader) run() {
	defer close(r.frames)
	sc := bufio.NewScanner(r.resp.Body)
	var f sseFrame
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if f.event != "" || f.data != "" {
				r.frames <- f
			}
			f = sseFrame{}
		case strings.HasPrefix(line, ":"):
			// heartbeat comment
		case strings.HasPrefix(line, "event: "):
			f.event = line[len("event: "):]
		case strings.HasPrefix(line, "id: "):
			f.id = line[len("id: "):]
		case strings.HasPrefix(line, "data: "):
			f.data = line[len("data: "):]
		}
	}
}

// next waits for the next frame.
func (r *sseReader) next(timeout time.Duration) sseFrame {
	r.t.Helper()
	select {
	case f, ok := <-r.frames:
		if !ok {
			r.t.Fatal("stream closed while waiting for frame")
		}
		return f
	case <-time.After(timeout):
		r.t.Fatal("timed out waiting for SSE frame")
	}
	return sseFrame{}
}

// none asserts no frame arrives within d.
func (r *sseReader) none(d time.Duration) {
	r.t.Helper()
	select {
	case f, ok := <-r.frames:
		if ok {
			r.t.Fatalf("unexpected frame %q %s", f.event, f.data)
		}
	case <-time.After(d):
	}
}

// appChain digs the in-process chain out of the app for direct seals.
func appChain(t *testing.T, a *App) *chain.Blockchain {
	t.Helper()
	lb, ok := a.Manager.Client.Backend().(*web3.LocalBackend)
	if !ok {
		t.Fatal("test rig is not a local backend")
	}
	return lb.BC
}

func TestSSEHeadsStream(t *testing.T) {
	a := rig(t)
	srv := httptest.NewServer(a.Handler())
	t.Cleanup(srv.Close)
	b := newBrowser(t, srv)
	b.register("watcher", "pw")
	bc := appChain(t, a)

	stream := openStream(t, b, "/api/v1/heads", nil)

	// A fresh stream replays the current head immediately.
	first := stream.next(5 * time.Second)
	if first.event != "head" {
		t.Fatalf("first frame: %q", first.event)
	}
	var head struct {
		Number uint64 `json:"number"`
		Hash   string `json:"hash"`
	}
	if err := json.Unmarshal([]byte(first.data), &head); err != nil {
		t.Fatal(err)
	}
	if head.Number != bc.View().BlockNumber() {
		t.Fatalf("first head = %d, chain head = %d", head.Number, bc.View().BlockNumber())
	}
	if first.id != strconv.FormatUint(head.Number, 10) {
		t.Fatalf("id %q for block %d", first.id, head.Number)
	}

	// Every subsequent seal arrives, in order, with linked hashes.
	prev := head.Number
	for i := 0; i < 3; i++ {
		bc.MineBlock()
		f := stream.next(5 * time.Second)
		if f.event != "head" {
			t.Fatalf("frame %d: event %q", i, f.event)
		}
		if err := json.Unmarshal([]byte(f.data), &head); err != nil {
			t.Fatal(err)
		}
		if head.Number != prev+1 {
			t.Fatalf("out of order: got block %d after %d", head.Number, prev)
		}
		prev = head.Number
	}
}

func TestSSEHeadsResume(t *testing.T) {
	a := rig(t)
	srv := httptest.NewServer(a.Handler())
	t.Cleanup(srv.Close)
	b := newBrowser(t, srv)
	b.register("resumer", "pw")
	bc := appChain(t, a)
	for i := 0; i < 3; i++ {
		bc.MineBlock()
	}
	headNow := bc.View().BlockNumber()

	// ?since replays everything after the given height.
	stream := openStream(t, b, "/api/v1/heads?since=0", nil)
	for n := uint64(1); n <= headNow; n++ {
		f := stream.next(5 * time.Second)
		if f.event != "head" || f.id != strconv.FormatUint(n, 10) {
			t.Fatalf("resume: want head %d, got %q id %q", n, f.event, f.id)
		}
	}

	// Last-Event-ID does the same (browser auto-reconnect path).
	stream2 := openStream(t, b, "/api/v1/heads", map[string]string{
		"Last-Event-ID": strconv.FormatUint(headNow-1, 10),
	})
	f := stream2.next(5 * time.Second)
	if f.id != strconv.FormatUint(headNow, 10) {
		t.Fatalf("Last-Event-ID resume: got id %q, want %d", f.id, headNow)
	}
}

func TestSSEContractEventsStream(t *testing.T) {
	a := rig(t)
	srv := httptest.NewServer(a.Handler())
	t.Cleanup(srv.Close)

	landlord := newBrowser(t, srv)
	landlord.register("lessor", "pw1")
	tenant := newBrowser(t, srv)
	tenant.register("lessee", "pw2")

	if resp, body := landlord.post("/deploy", url.Values{
		"artifact": {"BaseRental"},
		"rent":     {"1"}, "deposit": {"2"}, "months": {"12"},
		"house":    {"10115-Berlin-42"},
		"document": {"%PDF-1.4 agreement"},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy: %d %s", resp.StatusCode, body)
	}
	_, dash := tenant.get("/dashboard")
	addr := extractAddr(t, dash)

	// Live stream opened before the tenant acts: only future logs.
	stream := openStream(t, tenant, "/api/v1/contracts/"+addr+"/events", nil)

	if resp, body := tenant.post("/contract/"+addr+"/confirm", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("confirm: %d %s", resp.StatusCode, body)
	}
	if resp, body := tenant.post("/contract/"+addr+"/pay", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("pay: %d %s", resp.StatusCode, body)
	}

	sawDecoded := false
	for i := 0; i < 2; i++ {
		f := stream.next(5 * time.Second)
		if f.event != "log" {
			t.Fatalf("frame %d: event %q data %s", i, f.event, f.data)
		}
		var log struct {
			Address     string            `json:"address"`
			BlockNumber uint64            `json:"blockNumber"`
			LogIndex    uint64            `json:"logIndex"`
			Event       string            `json:"event"`
			Args        map[string]string `json:"args"`
		}
		if err := json.Unmarshal([]byte(f.data), &log); err != nil {
			t.Fatal(err)
		}
		if !strings.EqualFold(log.Address, addr) {
			t.Fatalf("log from %s, want %s", log.Address, addr)
		}
		if want := fmt.Sprintf("%d:%d", log.BlockNumber, log.LogIndex); f.id != want {
			t.Fatalf("id %q, want %q", f.id, want)
		}
		if log.Event != "" {
			sawDecoded = true
		}
	}
	if !sawDecoded {
		t.Fatal("no frame carried a decoded event name")
	}

	// Resuming from genesis replays the history (at-least-once).
	replay := openStream(t, tenant, "/api/v1/contracts/"+addr+"/events?since=0", nil)
	if f := replay.next(5 * time.Second); f.event != "log" {
		t.Fatalf("replay frame: %q", f.event)
	}

	// Unknown contract is a 404 envelope before any stream starts.
	resp, body := tenant.get("/api/v1/contracts/0x0000000000000000000000000000000000000001/events")
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(body, `"not_found"`) {
		t.Fatalf("unknown contract: %d %s", resp.StatusCode, body)
	}
}

// sealOnFlush runs seal right after the first flush of the response,
// the moment a client holding the stream's headers could first act.
type sealOnFlush struct {
	http.ResponseWriter
	seal func()
}

func (w sealOnFlush) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w sealOnFlush) Flush() {
	w.ResponseWriter.(http.Flusher).Flush()
	w.seal()
}

// TestSSELiveStreamKeepsBlockSealedAtHandshake seals the tenant's
// confirmation while the live stream's headers are on the wire: its log
// must arrive, not fall between the start view and the subscription.
func TestSSELiveStreamKeepsBlockSealedAtHandshake(t *testing.T) {
	a := rig(t)
	landlord, err := a.Register("lessor", "", "pw1")
	if err != nil {
		t.Fatal(err)
	}
	tenant, err := a.Register("lessee", "", "pw2")
	if err != nil {
		t.Fatal(err)
	}
	dep, err := a.Rental.DeployRental(landlord.Addr(), core.RentalTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12, House: "handshake",
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := ethtypes.HexToAddress(dep.Row.Address)

	var once sync.Once
	h := a.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			w = sealOnFlush{ResponseWriter: w, seal: func() {
				once.Do(func() {
					if err := a.Rental.Confirm(tenant.Addr(), addr); err != nil {
						t.Error(err)
					}
				})
			}}
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	b := newBrowser(t, srv)
	if resp, body := b.post("/login", url.Values{"name": {"lessee"}, "password": {"pw2"}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("login: %d %s", resp.StatusCode, body)
	}

	stream := openStream(t, b, "/api/v1/contracts/"+dep.Row.Address+"/events", nil)
	if f := stream.next(5 * time.Second); f.event != "log" {
		t.Fatalf("first frame: %q %s", f.event, f.data)
	}
}

func TestSSEUnauthorizedEnvelope(t *testing.T) {
	a := rig(t)
	srv := httptest.NewServer(a.Handler())
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + "/api/v1/heads")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Error.Code != "unauthorized" {
		t.Fatalf("code %q", out.Error.Code)
	}
}

// TestSSEContractEventsResumeMidBlock resumes a log stream from the
// first of two logs sealed in one block: a log id may be followed by
// more logs of its block, so the rest of that block must arrive.
func TestSSEContractEventsResumeMidBlock(t *testing.T) {
	a := rig(t)
	landlord, err := a.Register("lessor", "", "pw1")
	if err != nil {
		t.Fatal(err)
	}
	tenant, err := a.Register("lessee", "", "pw2")
	if err != nil {
		t.Fatal(err)
	}
	dep, err := a.Rental.DeployRental(landlord.Addr(), core.RentalTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12, House: "mid-block",
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := dep.Contract.Address
	if err := a.Rental.Confirm(tenant.Addr(), addr); err != nil {
		t.Fatal(err)
	}

	// Two payRent transactions sealed into one block.
	bc := appChain(t, a)
	data, err := dep.Contract.ABI.Pack("payRent")
	if err != nil {
		t.Fatal(err)
	}
	nonce := bc.GetNonce(tenant.Addr())
	for i := uint64(0); i < 2; i++ {
		tx := &ethtypes.Transaction{
			Nonce: nonce + i, GasPrice: ethtypes.Gwei(1), Gas: 300_000,
			To: &addr, Value: ethtypes.Ether(1), Data: data,
		}
		if err := a.Manager.Client.Keystore().SignTx(tenant.Addr(), tx, bc.ChainID()); err != nil {
			t.Fatal(err)
		}
		if _, err := bc.SubmitTransaction(tx); err != nil {
			t.Fatal(err)
		}
	}
	block, failed := bc.MineBlock()
	if len(failed) != 0 || len(block.Transactions) != 2 {
		t.Fatalf("block %d: %d txs, failed %v", block.Number(), len(block.Transactions), failed)
	}
	var ids []string
	for _, tx := range block.Transactions {
		rcpt, _ := bc.GetReceipt(tx.Hash())
		for _, l := range rcpt.Logs {
			ids = append(ids, fmt.Sprintf("%d:%d", l.BlockNumber, l.Index))
		}
	}
	// A log's index counts across its block: the two frames' ids differ.
	if want := []string{fmt.Sprintf("%d:0", block.Number()), fmt.Sprintf("%d:1", block.Number())}; !slices.Equal(ids, want) {
		t.Fatalf("block %d holds logs %v, want %v", block.Number(), ids, want)
	}

	srv := httptest.NewServer(a.Handler())
	t.Cleanup(srv.Close)
	b := newBrowser(t, srv)
	if resp, body := b.post("/login", url.Values{"name": {"lessee"}, "password": {"pw2"}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("login: %d %s", resp.StatusCode, body)
	}
	// Resuming from the block's first log replays it, then the second.
	stream := openStream(t, b, "/api/v1/contracts/"+addr.Hex()+"/events", map[string]string{
		"Last-Event-ID": ids[0],
	})
	for _, want := range ids {
		if f := stream.next(2 * time.Second); f.event != "log" || f.id != want {
			t.Fatalf("resumed frame: %q id %q, want log id %q", f.event, f.id, want)
		}
	}
}

// TestSSEMalformedSinceRefused: both streams apply sinceParam's rule to
// ?since= and answer a malformed one with the 400 envelope before any
// event-stream header goes out, as the contract list does. A malformed
// Last-Event-ID comes from the browser, so it opens a live stream.
func TestSSEMalformedSinceRefused(t *testing.T) {
	b, _, addr := apiRig(t)
	for _, path := range []string{"/api/v1/heads", "/api/v1/contracts/" + addr + "/events"} {
		resp, err := b.c.Get(b.url + path + "?since=banana")
		if err != nil {
			t.Fatal(err)
		}
		var env v1Envelope
		decErr := json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct == "text/event-stream" {
			t.Fatalf("%s?since=banana opened a stream", path)
		}
		if decErr != nil || resp.StatusCode != http.StatusBadRequest ||
			env.Error.Code != v1BadRequest || env.Error.Message != `bad since "banana"` {
			t.Fatalf("%s?since=banana: %d %+v (%v)", path, resp.StatusCode, env.Error, decErr)
		}
		openStream(t, b, path, map[string]string{"Last-Event-ID": "banana"}).close()
	}
}
