package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"legalchain/internal/app"
	"legalchain/internal/chain"
	"legalchain/internal/contracts"
	"legalchain/internal/core"
	"legalchain/internal/docstore"
	"legalchain/internal/ethtypes"
	"legalchain/internal/hexutil"
	"legalchain/internal/ipfs"
	"legalchain/internal/rpc"
	"legalchain/internal/uint256"
	"legalchain/internal/watch"
	"legalchain/internal/web3"
	"legalchain/internal/ws"
)

// serve_mix: the serving tier under a moving head. One open-loop writer
// pays rent every 100 ms (so the head moves at 10 blocks/s whatever the
// node's speed), one closed-loop reader with no think time draws
// JSON-RPC and REST reads from a seeded mix through an in-process
// RoundTripper into the real handlers, and one WebSocket newHeads
// subscriber on a loopback socket measures push lag.

const (
	writeInterval       = 100 * time.Millisecond
	agreementsPerSecond = 3.2 // 32 agreements at the 10 s run length
	maxAgreements       = 32
)

// The reader's mix, in percent.
const (
	mixEthCall  = 40
	mixHead     = 20 // eth_blockNumber + eth_getBlockByNumber("latest")
	mixGetLogs  = 15
	mixContract = 15 // GET /api/v1/contracts/{addr}
	// the remaining 10: GET /api/v1/contracts/{addr}/timeline
)

var rentalGetters = []string{"rent", "deposit", "getNext", "getPrev"}

// served is one agreement the readers ask about, with what set-up saw.
type served struct {
	addr     ethtypes.Address // newest version
	versions int
	want     [][]byte // raw return of each getter in rentalGetters
	logs     int      // logs of addr when set-up ended
	events   int      // watchtower timeline length when set-up ended
}

type serveEnv struct {
	bc         *chain.Blockchain
	in         *inputs
	store      *docstore.Store
	svc        *core.RentalService
	tower      *watch.Tower
	rpcHandler *rpc.Server
	appHandler http.Handler
	wsSrv      *http.Server
	wsURL      string
	session    string
	viewer     ethtypes.Address
	agreements []served
}

func (e *serveEnv) close() {
	e.wsSrv.Close()
	e.tower.Close()
	e.bc.Close()
	e.store.Close()
}

// handlerTransport routes a request straight into an http.Handler: the
// same serialisation on both sides, no socket.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rw := httptest.NewRecorder()
	t.h.ServeHTTP(rw, req)
	return rw.Result(), nil
}

func setupServe(r *run) (*serveEnv, error) {
	in := newInputs(r.cfg, 2)
	landlord, tenant := in.accounts[0].Address, in.accounts[1].Address
	e := &serveEnv{bc: chain.New(in.genesis), in: in}
	client, err := web3.NewClient(web3.NewLocalBackend(e.bc), in.ks)
	if err != nil {
		return nil, err
	}
	if e.store, err = docstore.Open(""); err != nil {
		return nil, err
	}
	mgr := core.NewManager(client, ipfs.NewNode(ipfs.NewMemStore()), e.store)
	e.svc = core.NewRentalService(mgr)
	if e.tower, err = watch.New(e.bc, watch.Config{}); err != nil {
		return nil, err
	}
	e.tower.Start()
	webApp := app.New(mgr)
	webApp.Watch = e.tower
	e.appHandler = webApp.Handler()
	e.rpcHandler = rpc.NewServer(e.bc, in.ks)
	e.rpcHandler.SetWatch(e.tower)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listener: %w", err)
	}
	e.wsSrv = &http.Server{Handler: http.HandlerFunc(e.rpcHandler.ServeWS)}
	go e.wsSrv.Serve(ln)
	e.wsURL = "ws://" + ln.Addr().String()

	user, err := webApp.Register("auditor", "auditor@bench.invalid", "benchmark")
	if err != nil {
		return nil, err
	}
	e.viewer = user.Addr()
	if e.session, err = webApp.Login("auditor", "benchmark"); err != nil {
		return nil, err
	}

	rng := rngFor(r.cfg, 0)
	n := scaled(agreementsPerSecond, r.cfg.seconds)
	if n < 2 {
		n = 2
	}
	if n > maxAgreements {
		n = maxAgreements
	}
	for i := 0; i < n; i++ {
		terms := rentalTerms(rng)
		dep, err := e.svc.DeployRental(landlord, terms)
		if err != nil {
			return nil, err
		}
		s := served{addr: dep.Contract.Address, versions: 1}
		if err := e.svc.Confirm(tenant, s.addr); err != nil {
			return nil, err
		}
		if _, err := e.svc.PayRent(tenant, s.addr); err != nil {
			return nil, err
		}
		if i%2 == 1 {
			next, err := e.svc.Modify(landlord, s.addr, amendedTerms(terms, rng))
			if err != nil {
				return nil, err
			}
			if err := e.svc.ConfirmModification(tenant, next.Contract.Address); err != nil {
				return nil, err
			}
			s.addr, s.versions = next.Contract.Address, 2
		}
		e.agreements = append(e.agreements, s)
	}
	// What the readers will be checked against.
	e.tower.Sync()
	rentalABI := contracts.MustArtifact("RentalAgreementV2").ABI
	for i := range e.agreements {
		s := &e.agreements[i]
		for _, getter := range rentalGetters {
			data, err := rentalABI.Pack(getter)
			if err != nil {
				return nil, err
			}
			res := e.bc.Call(e.viewer, &s.addr, data, uint256.Zero, 0)
			if res.Err != nil {
				return nil, fmt.Errorf("%s() on %s: %w", getter, s.addr, res.Err)
			}
			s.want = append(s.want, res.Return)
		}
		s.logs = len(e.bc.FilterLogs(chain.FilterQuery{Addresses: []ethtypes.Address{s.addr}}))
		s.events = len(e.tower.Timeline(s.addr))
	}
	return e, nil
}

// headWatch joins, per block, the instant the sealer published the head
// view, the instant an in-process hub subscriber saw it, and the instant
// the WebSocket subscriber received it.
type headWatch struct {
	mu         sync.Mutex
	published  map[uint64]time.Time
	hubSeen    map[uint64]time.Time
	wsSeen     map[uint64]time.Time
	gaps       int // gap notices on either subscription
	outOfOrder int
	wsHead     atomic.Uint64
}

func (w *headWatch) reference(sub *chain.Subscription) {
	for {
		<-sub.Wait()
		events, gap, alive := sub.Drain()
		now := time.Now()
		w.mu.Lock()
		w.gaps += int(gap)
		for _, ev := range events {
			n := ev.View.BlockNumber()
			w.published[n] = ev.View.PublishedAt()
			w.hubSeen[n] = now
		}
		w.mu.Unlock()
		if !alive {
			return
		}
	}
}

// subscribe sends eth_subscribe("newHeads") and returns the
// subscription id.
func wsSubscribe(conn *ws.Conn) (string, error) {
	if err := conn.WriteText(`{"jsonrpc":"2.0","id":1,"method":"eth_subscribe","params":["newHeads"]}`); err != nil {
		return "", err
	}
	for {
		_, payload, err := conn.ReadMessage()
		if err != nil {
			return "", err
		}
		var resp struct {
			ID     json.RawMessage `json:"id"`
			Result string          `json:"result"`
			Error  *struct {
				Message string `json:"message"`
			} `json:"error"`
		}
		if json.Unmarshal(payload, &resp) != nil || len(resp.ID) == 0 {
			continue
		}
		if resp.Error != nil {
			return "", fmt.Errorf("eth_subscribe: %s", resp.Error.Message)
		}
		return resp.Result, nil
	}
}

// websocket consumes notifications until the connection is closed.
func (w *headWatch) websocket(conn *ws.Conn, sub string) {
	var last uint64
	for {
		_, payload, err := conn.ReadMessage()
		if err != nil {
			return
		}
		now := time.Now()
		var notif struct {
			Method string `json:"method"`
			Params struct {
				Subscription string `json:"subscription"`
				Result       struct {
					Number string `json:"number"`
					Gap    *struct {
						Missed string `json:"missed"`
					} `json:"gap"`
				} `json:"result"`
			} `json:"params"`
		}
		if json.Unmarshal(payload, &notif) != nil || notif.Method != "eth_subscription" || notif.Params.Subscription != sub {
			continue
		}
		w.mu.Lock()
		if notif.Params.Result.Gap != nil {
			w.gaps++
		} else if n, err := hexutil.DecodeUint64(notif.Params.Result.Number); err == nil {
			if last != 0 && n != last+1 {
				w.outOfOrder++
			}
			last = n
			w.wsSeen[n] = now
			w.wsHead.Store(n)
		}
		w.mu.Unlock()
	}
}

func runServe(r *run) error {
	env, err := setUp(r, func(int) (*serveEnv, error) { return setupServe(r) })
	if err != nil {
		return err
	}
	defer env.close()
	r.note("agreements", len(env.agreements))
	r.note("write_interval_ms", writeInterval.Milliseconds())
	r.note("clients", "1 open-loop writer, 1 closed-loop reader, 1 websocket subscriber")
	bc := env.bc

	watchHeads := &headWatch{published: map[uint64]time.Time{}, hubSeen: map[uint64]time.Time{}, wsSeen: map[uint64]time.Time{}}
	ref := bc.SubscribeHeads(0)
	var subs sync.WaitGroup
	subs.Add(1)
	go func() { defer subs.Done(); watchHeads.reference(ref) }()
	conn, err := ws.Dial(env.wsURL, 5*time.Second)
	if err != nil {
		ref.Close()
		subs.Wait()
		return fmt.Errorf("websocket dial: %w", err)
	}
	subID, err := wsSubscribe(conn)
	if err != nil {
		ref.Close()
		subs.Wait()
		return err
	}
	subs.Add(1)
	go func() { defer subs.Done(); watchHeads.websocket(conn, subID) }()

	supply := bc.TotalSupply()
	headBefore := bc.BlockNumber()
	start := time.Now()
	deadline := start.Add(time.Duration(r.cfg.seconds * float64(time.Second)))
	var reads float64 // per second of reading; written by the reader alone, read after Wait
	var load sync.WaitGroup
	load.Add(2)
	go func() { defer load.Done(); env.writer(r, start, deadline) }()
	go func() { defer load.Done(); reads = env.reader(r, deadline) }()
	load.Wait()
	elapsed := time.Since(start)
	headAfter := bc.BlockNumber()

	// Let the last head reach the socket, then stop both subscribers.
	for wait := time.Now(); watchHeads.wsHead.Load() < headAfter && time.Since(wait) < 2*time.Second; {
		time.Sleep(time.Millisecond)
	}
	conn.Close(ws.CloseNormal, "run over")
	ref.Close()
	subs.Wait()

	r.set("reads_per_s", reads)
	r.set("ops_per_s", reads)
	r.setTiming("write_p50_ms", "write", 0.5, 1)
	r.setTiming("op_p50_ms", "write", 0.5, 1)
	r.setTiming("bench.writer_late.p99_ms", "writer_late", 0.99, 1)
	r.set("chain.blocks_per_s", float64(headAfter-headBefore)/elapsed.Seconds())
	r.setTiming("rpc.eth_call.p50_us", "rpc.eth_call", 0.5, 1e3)
	r.setTiming("rpc.eth_call.p99_us", "rpc.eth_call", 0.99, 1e3)
	r.setTiming("rpc.eth_getBlockByNumber.p50_us", "rpc.eth_getBlockByNumber", 0.5, 1e3)
	r.setTiming("rpc.eth_getLogs.p50_us", "rpc.eth_getLogs", 0.5, 1e3)
	r.setTiming("rpc.read.p99_ms", "rpc.read", 0.99, 1)
	r.setTiming("app.contract_get.p50_us", "app.contract_get", 0.5, 1e3)
	r.setTiming("app.timeline.p50_us", "app.timeline", 0.5, 1e3)

	// Push lag, joined per block of the timed part.
	heads := 0
	for n := headBefore + 1; n <= headAfter; n++ {
		pub, ok := watchHeads.published[n]
		if !ok {
			continue
		}
		if seen, ok := watchHeads.hubSeen[n]; ok {
			r.rec.add("chain.hub.notify", seen.Sub(pub))
		}
		if seen, ok := watchHeads.wsSeen[n]; ok {
			r.rec.add("ws.notify", seen.Sub(pub))
			heads++
		}
	}
	r.setTiming("ws.notify.p50_ms", "ws.notify", 0.5, 1)
	r.setTiming("ws.notify.p99_ms", "ws.notify", 0.99, 1)
	r.setTiming("chain.hub.notify.p50_us", "chain.hub.notify", 0.5, 1e3)
	r.set("ws.gaps", float64(watchHeads.gaps+watchHeads.outOfOrder))
	r.check(watchHeads.gaps == 0 && watchHeads.outOfOrder == 0, "%d subscription gaps, %d out-of-order heads", watchHeads.gaps, watchHeads.outOfOrder)
	r.check(heads == int(headAfter-headBefore), "websocket delivered %d of %d heads", heads, headAfter-headBefore)

	// Oracle on the chain and the watchtower.
	mean, _, _ := env.tower.ConvergenceLag()
	r.set("watch.lag.mean_blocks", mean)
	env.tower.Sync()
	st := env.tower.Status()
	r.check(st.Folded == headAfter, "watchtower folded %d, head %d", st.Folded, headAfter)
	tally := tallyBlocks(bc, headBefore, headAfter, r.cfg.probes)
	r.check(tally.failed == 0 && tally.txs == r.rec.count("write"), "%d payments sealed (%d failed) for %d paid", tally.txs, tally.failed, r.rec.count("write"))
	r.check(bc.TotalSupply() == supply, "total ether supply changed")

	if r.cfg.trace {
		probeSigning(r, bc, env.in.ks, tally.raw)
		probeEVMCall(r, bc, env.agreements[0].addr, env.viewer)
		r.set("rpc.overhead.p50_us", r.values["rpc.eth_call.p50_us"]-r.values["evm.call.p50_us"])
		// A fresh watchtower folding the finished chain in one go.
		fresh, err := watch.New(bc, watch.Config{})
		if r.check(err == nil, "probe watchtower: %v", err) {
			t0 := time.Now()
			fresh.SyncView(bc.View())
			r.set("watch.fold.us_per_block", float64(time.Since(t0).Microseconds())/float64(headAfter))
			fresh.Close()
		}
	}
	return nil
}

// writer is the open loop: payment k is due at start + k×100 ms and is
// timed from then, so a stall delays — and is charged to — every payment
// queued behind it.
func (e *serveEnv) writer(r *run, start, deadline time.Time) {
	tenant := e.in.accounts[1].Address
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * writeInterval)
		if !due.Before(deadline) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r.rec.add("writer_late", time.Since(due))
		rcpt, err := e.svc.PayRent(tenant, e.agreements[k%len(e.agreements)].addr)
		d := time.Since(due)
		if r.check(err == nil && rcpt.Succeeded(), "paced payRent: %v", err) {
			r.rec.add("write", d)
		}
	}
}

// reader is the closed loop: the next request leaves when the previous
// answer has been checked. It returns the reads answered correctly per
// second of reading, the pauses that measure the host left out.
func (e *serveEnv) reader(r *run, deadline time.Time) float64 {
	rng := rngFor(r.cfg, 1)
	rpcc := rpc.Dial("http://rpc.inproc")
	rpcc.SetHTTPClient(&http.Client{Transport: handlerTransport{e.rpcHandler}})
	rest := &http.Client{Transport: handlerTransport{e.appHandler}}
	rentalABI := contracts.MustArtifact("RentalAgreementV2").ABI
	calldata := make([][]byte, len(rentalGetters))
	for i, g := range rentalGetters {
		calldata[i], _ = rentalABI.Pack(g)
	}
	var lastHead uint64
	correct := 0
	start, pace := time.Now(), r.host.pacer()
	for time.Now().Before(deadline) {
		pace.tick()
		s := &e.agreements[rng.Intn(len(e.agreements))]
		var ok bool
		switch draw := rng.Intn(100); {
		case draw < mixEthCall:
			g := rng.Intn(len(rentalGetters))
			t0 := time.Now()
			ret, err := rpcc.CallContract(web3.CallMsg{From: e.viewer, To: &s.addr, Data: calldata[g]})
			d := time.Since(t0)
			if ok = err == nil && bytes.Equal(ret, s.want[g]); ok {
				r.rec.add("rpc.eth_call", d)
				r.rec.add("rpc.read", d)
			}
		case draw < mixEthCall+mixHead:
			t0 := time.Now()
			head, err := rpcc.BlockNumber()
			t1 := time.Now()
			var blk struct {
				Number string `json:"number"`
			}
			err2 := rpcc.Call(&blk, "eth_getBlockByNumber", "latest", false)
			t2 := time.Now()
			n, err3 := hexutil.DecodeUint64(blk.Number)
			if ok = err == nil && err2 == nil && err3 == nil && head >= lastHead && n >= head; ok {
				lastHead = n
				r.rec.add("rpc.eth_blockNumber", t1.Sub(t0))
				r.rec.add("rpc.eth_getBlockByNumber", t2.Sub(t1))
				r.rec.add("rpc.read", t1.Sub(t0))
				r.rec.add("rpc.read", t2.Sub(t1))
			}
		case draw < mixEthCall+mixHead+mixGetLogs:
			t0 := time.Now()
			logs, err := rpcc.FilterLogs(chain.FilterQuery{Addresses: []ethtypes.Address{s.addr}})
			d := time.Since(t0)
			if ok = err == nil && len(logs) >= s.logs; ok {
				r.rec.add("rpc.eth_getLogs", d)
				r.rec.add("rpc.read", d)
			}
		case draw < mixEthCall+mixHead+mixGetLogs+mixContract:
			var body struct {
				Row      core.ContractRow  `json:"row"`
				Versions []json.RawMessage `json:"versions"`
				Verified bool              `json:"verified"`
			}
			d, err := e.get(rest, "/api/v1/contracts/"+s.addr.Hex(), &body)
			if ok = err == nil && body.Row.Address == s.addr.Hex() && body.Verified && len(body.Versions) == s.versions; ok {
				r.rec.add("app.contract_get", d)
			}
		default:
			var body struct {
				Address string `json:"address"`
				Count   int    `json:"count"`
			}
			d, err := e.get(rest, "/api/v1/contracts/"+s.addr.Hex()+"/timeline", &body)
			if ok = err == nil && body.Address == s.addr.Hex() && body.Count >= s.events; ok {
				r.rec.add("app.timeline", d)
			}
		}
		if r.check(ok, "read of %s answered wrongly", s.addr) {
			correct++
		}
	}
	return float64(correct) / (time.Since(start) - pace.paused).Seconds()
}

// get issues one authenticated REST read and decodes the JSON answer;
// the duration covers request, handler and decoding.
func (e *serveEnv) get(c *http.Client, path string, out interface{}) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodGet, "http://app.inproc"+path, nil)
	if err != nil {
		return 0, err
	}
	req.AddCookie(&http.Cookie{Name: "legalchain_session", Value: e.session})
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(out)
	return time.Since(t0), err
}
