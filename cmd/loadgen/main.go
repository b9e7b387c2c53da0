// Command loadgen is the closed-loop workload generator for the rental
// platform: it drives N landlord/tenant pairs through the paper's
// Fig. 4 lifecycle (deploy → sign → pay rent → modify → terminate)
// while M read-only users poll the chain and K WebSocket subscribers
// consume eth_subscribe("newHeads"), then reports p50/p95/p99 latency
// per operation class, subscription lag and the error budget as JSON
// and CSV.
//
// Two modes:
//
//	loadgen -rpc http://host:8545 -ws ws://host:8546 -pairs 0   # live node
//	loadgen                                                     # self-hosted
//
// Lifecycle pairs run only self-hosted: their modify step's upgrade
// guard executes its property checks on a pinned head view, which no
// JSON-RPC transport provides, so over -rpc every modification would
// fail closed (and record a rejection on the target). A live node gets
// readers and WebSocket subscribers.
//
// Self-hosted runs a full in-process node (chain + JSON-RPC server +
// WS endpoint): RPC reads route through an in-process HTTP transport
// so simulated users are not bounded by file descriptors, while WS
// subscribers use real sockets on a loopback listener. This is the
// mode `make slo-smoke` gates CI with:
//
//	loadgen -users 10000 -pairs 8 -subscribers 128 \
//	        -gate-p99-read 50ms -gate-zero-drops
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"legalchain/internal/chain"
	"legalchain/internal/core"
	"legalchain/internal/docstore"
	"legalchain/internal/ethtypes"
	"legalchain/internal/ipfs"
	"legalchain/internal/metrics"
	"legalchain/internal/rpc"
	"legalchain/internal/wallet"
	"legalchain/internal/watch"
	"legalchain/internal/web3"
	"legalchain/internal/ws"
)

func main() {
	var (
		rpcURL      = flag.String("rpc", "", "JSON-RPC HTTP URL of a live node (empty = self-hosted in-process node)")
		wsURL       = flag.String("ws", "", "WebSocket URL for eth_subscribe (self-hosted mode provides its own)")
		pairs       = flag.Int("pairs", 4, "landlord/tenant pairs running the full contract lifecycle")
		users       = flag.Int("users", 100, "simulated read-only users polling the chain")
		subscribers = flag.Int("subscribers", 16, "WebSocket newHeads subscribers")
		think       = flag.Duration("think", 2*time.Second, "mean pause between one user's reads")
		duration    = flag.Duration("duration", 30*time.Second, "how long to generate load")
		seed        = flag.String("seed", "loadgen", "dev-account derivation seed (must match the target's genesis alloc)")
		outPath     = flag.String("out", "", "write the JSON report here (default stdout)")
		csvPath     = flag.String("csv", "", "also write a per-op CSV here")
		gateP99Read = flag.Duration("gate-p99-read", 0, "fail unless read p99 is below this (0 = no gate)")
		gateDrops   = flag.Bool("gate-zero-drops", false, "fail on any lifecycle error, subscription gap or out-of-order head")
		gateLag     = flag.Uint64("gate-watch-lag", 0, "run a watchtower beside the load and fail unless its mean fold convergence lag (residual blocks left behind per fold batch) stays under this (self-hosted only, 0 = no gate)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus text) on this address for the duration of the run")
	)
	flag.Parse()
	if *rpcURL != "" && *pairs > 0 {
		fatalf("-rpc needs -pairs 0: over JSON-RPC the upgrade guard has no head view, so every modify would fail closed (property_unverifiable) and record a rejection on the node; lifecycle pairs run self-hosted (no -rpc)")
	}

	accounts := wallet.DevAccounts(*seed, 2**pairs)
	ks := wallet.NewKeystore()
	for _, a := range accounts {
		ks.Import(a.Key)
	}

	var (
		bc      *chain.Blockchain
		httpc   *http.Client
		target  = *rpcURL
		wsubURL = *wsURL
	)
	if target == "" {
		// Self-hosted: in-process node, in-process RPC transport, real
		// loopback WS listener.
		g := chain.DefaultGenesis()
		g.Alloc = wallet.DevAlloc(accounts, ethtypes.Ether(1_000_000))
		bc = chain.New(g)
		defer bc.Close()
		srv := rpc.NewServer(bc, ks)
		httpc = &http.Client{Transport: handlerTransport{h: srv}}
		target = "http://loadgen.inproc"

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatalf("ws listener: %v", err)
		}
		wsSrv := &http.Server{Handler: http.HandlerFunc(srv.ServeWS)}
		go wsSrv.Serve(ln)
		defer wsSrv.Close()
		wsubURL = "ws://" + ln.Addr().String()
	} else {
		httpc = &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 256,
			},
		}
	}

	if *metricsAddr != "" {
		// Live observation of the run itself: the process's default
		// registry carries chain, RPC and (with -gate-watch-lag) watch
		// metrics while the load is running.
		mux := http.NewServeMux()
		mux.Handle("/metrics", metrics.Handler())
		msrv := &http.Server{Addr: *metricsAddr, Handler: mux}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fatalf("metrics listener: %v", err)
			}
		}()
		defer msrv.Close()
	}

	// Watchtower lag gate: fold every sealed block into lifecycle state
	// while the full load runs; the gate reads the tower's convergence
	// lag at the end.
	var tower *watch.Tower
	if *gateLag > 0 {
		if bc == nil {
			fatalf("-gate-watch-lag requires self-hosted mode (no -rpc)")
		}
		var err error
		tower, err = watch.New(bc, watch.Config{})
		if err != nil {
			fatalf("watchtower: %v", err)
		}
		tower.Start()
		defer tower.Close()
	}

	rec := newRecorder()
	clock := newHeadClock()
	var gaps, headsSeen, outOfOrder atomic.Int64

	// Self-hosted: the in-process hub subscription is the lag reference
	// (a head's birth is the instant the sealer published it).
	if bc != nil {
		refSub := bc.SubscribeHeads(0)
		defer refSub.Close()
		go func() {
			var last uint64
			for range refSub.Wait() {
				v, alive := refSub.Newest()
				if v != nil {
					now := time.Now()
					head := v.BlockNumber()
					for n := last + 1; n <= head; n++ {
						clock.stamp(n, now)
					}
					last = head
				}
				if !alive {
					return
				}
			}
		}()
	}

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	var wg sync.WaitGroup
	t0 := time.Now()

	// WS subscribers (closed on winddown so watcher goroutines exit).
	var conns struct {
		sync.Mutex
		list []*ws.Conn
	}
	if wsubURL != "" {
		for i := 0; i < *subscribers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn, err := ws.Dial(wsubURL, 10*time.Second)
				if err != nil {
					if ctx.Err() == nil {
						rec.observe("ws_notify", 0, err)
					}
					return
				}
				conns.Lock()
				conns.list = append(conns.list, conn)
				conns.Unlock()
				w := &wsWatcher{clock: clock, rec: rec, gaps: &gaps, heads: &headsSeen, ooo: &outOfOrder}
				// A handshake torn down by the winddown close is not a
				// delivery failure — only count errors while the run is
				// still live.
				if err := w.watch(conn); err != nil && ctx.Err() == nil {
					rec.observe("ws_notify", 0, err)
				}
			}()
		}
	}

	// Lifecycle pairs (self-hosted only): each owns its accounts and
	// registry, all share the node over the local backend — the same
	// wiring rentald uses, which gives the upgrade guard its head view.
	// The read/subscribe load stays on the RPC serialisation path.
	for i := 0; i < *pairs; i++ {
		client, err := web3.NewClient(web3.NewLocalBackend(bc), ks)
		if err != nil {
			fatalf("web3 client: %v", err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			landlord, tenant := accounts[2*i].Address, accounts[2*i+1].Address
			runPair(ctx, rec, client, landlord, tenant)
		}(i)
	}

	// Read-only users.
	for i := 0; i < *users; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runReader(ctx, rec, rpcDial(target, httpc), *think, i)
		}(i)
	}

	<-ctx.Done()
	// Winddown: readers and pairs see ctx; subscribers need their
	// connections closed under them.
	conns.Lock()
	for _, c := range conns.list {
		c.Close(ws.CloseNormal, "load test over")
	}
	conns.Unlock()
	wg.Wait()
	wall := time.Since(t0)

	report := map[string]interface{}{
		"config": map[string]interface{}{
			"rpc": target, "ws": wsubURL, "selfHosted": bc != nil,
			"pairs": *pairs, "users": *users, "subscribers": *subscribers,
			"thinkMs": ms(*think), "durationSec": duration.Seconds(),
		},
		"ops": rec.report(),
		"subscription": map[string]interface{}{
			"subscribers": *subscribers,
			"headsSeen":   headsSeen.Load(),
			"gaps":        gaps.Load(),
			"outOfOrder":  outOfOrder.Load(),
		},
		"wallSec": wall.Seconds(),
	}
	var convMean float64
	var convMax, convN uint64
	if tower != nil {
		st := tower.Summary()
		convMean, convMax, convN = tower.ConvergenceLag()
		delayP50, delayP99 := tower.FoldDelay()
		report["watch"] = map[string]interface{}{
			"tracked": st.Tracked, "folded": st.Folded, "head": st.Head,
			"convergenceLagBlocks": convMean, "convergenceLagMax": convMax,
			"foldBatches":    convN,
			"foldDelayP50Ms": delayP50 * 1e3,
			"foldDelayP99Ms": delayP99 * 1e3,
		}
		// The residual is the fold's wake-up delay in block intervals:
		// print both, so a failing gate says whether it is scheduling
		// or work.
		fmt.Fprintf(os.Stderr, "watch: convergence lag %.3f blocks over %d fold batches (worst residual %d); fold delay p50 %.2f ms, p99 %.2f ms\n",
			convMean, convN, convMax, delayP50*1e3, delayP99*1e3)
	}
	buf, _ := json.MarshalIndent(report, "", "  ")
	buf = append(buf, '\n')
	if *outPath == "" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(*outPath, buf, 0o644); err != nil {
		fatalf("write %s: %v", *outPath, err)
	}
	if *csvPath != "" {
		writeCSV(*csvPath, rec.report())
	}

	failed := gate(rec.report(), *gateP99Read, *gateDrops, gaps.Load(), outOfOrder.Load())
	// The gate is on convergence lag — the backlog the tower leaves
	// behind each time its fold loop runs — not on the head's distance
	// from the fold at an arbitrary instant, which on a saturated box
	// mostly measures how long the fold goroutine waited for a CPU (the
	// fold delay above reports that wait). A healthy tower converges to
	// ~0 residual every batch regardless of scheduler pressure.
	if *gateLag > 0 && convMean >= float64(*gateLag) {
		fmt.Fprintf(os.Stderr, "GATE: watchtower convergence lag %.3f blocks over %d fold batches (budget < %d; worst residual %d)\n",
			convMean, convN, *gateLag, convMax)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// gate checks the SLO thresholds and reports every violation.
func gate(ops []opReport, p99Read time.Duration, zeroDrops bool, gaps, ooo int64) bool {
	failed := false
	for _, op := range ops {
		if p99Read > 0 && op.Op == "read" && op.P99Ms > ms(p99Read) {
			fmt.Fprintf(os.Stderr, "GATE: read p99 %.2fms exceeds %.2fms\n", op.P99Ms, ms(p99Read))
			failed = true
		}
		if zeroDrops && op.Errors > 0 {
			fmt.Fprintf(os.Stderr, "GATE: %d %s errors (budget 0; first: %s)\n", op.Errors, op.Op, op.FirstError)
			failed = true
		}
	}
	if zeroDrops && gaps > 0 {
		fmt.Fprintf(os.Stderr, "GATE: %d subscription gap(s) (budget 0)\n", gaps)
		failed = true
	}
	if zeroDrops && ooo > 0 {
		fmt.Fprintf(os.Stderr, "GATE: %d out-of-order head(s) (budget 0)\n", ooo)
		failed = true
	}
	return failed
}

// runPair loops one landlord/tenant pair through the Fig. 4 lifecycle
// until the run ends. Every step is timed under its own op class; a
// failed step aborts the current iteration (the next one redeploys).
func runPair(ctx context.Context, rec *recorder, client *web3.Client, landlord, tenant ethtypes.Address) {
	store, _ := docstore.Open("")
	defer store.Close()
	mgr := core.NewManager(client, ipfs.NewNode(ipfs.NewMemStore()), store)
	svc := core.NewRentalService(mgr)
	terms := core.RentalTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
		House:    "10115-Berlin-42",
		LegalDoc: []byte("%PDF-1.4 synthetic rental agreement for load testing"),
	}
	for ctx.Err() == nil {
		var dep *core.Deployment
		if rec.timed("deploy", func() (err error) {
			dep, err = svc.DeployRental(landlord, terms)
			return err
		}) != nil {
			continue
		}
		addr := dep.Contract.Address
		if rec.timed("confirm", func() error { return svc.Confirm(tenant, addr) }) != nil {
			continue
		}
		payFailed := false
		for m := 0; m < 2 && ctx.Err() == nil; m++ {
			if rec.timed("pay", func() error {
				_, err := svc.PayRent(tenant, addr)
				return err
			}) != nil {
				payFailed = true
				break
			}
		}
		if payFailed || ctx.Err() != nil {
			continue
		}
		var mod *core.Deployment
		if rec.timed("modify", func() (err error) {
			mod, err = svc.Modify(landlord, addr, core.ModifiedTerms{
				Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12,
				House:          "10115-Berlin-42",
				MaintenanceFee: ethtypes.Ether(1),
				LegalDoc:       []byte("%PDF-1.4 amended agreement"),
			})
			return err
		}) != nil {
			continue
		}
		next := mod.Contract.Address
		if rec.timed("confirm", func() error { return svc.ConfirmModification(tenant, next) }) != nil {
			continue
		}
		rec.timed("terminate", func() error { return svc.Terminate(tenant, next) })
	}
}

// runReader simulates one dashboard user: poll the head, read the
// latest block, think, repeat.
func runReader(ctx context.Context, rec *recorder, c *rpc.Client, think time.Duration, id int) {
	rng := rand.New(rand.NewSource(int64(id) + 1))
	// De-synchronise start times so 10k users don't poll in lockstep.
	wait(ctx, time.Duration(rng.Int63n(int64(think)+1)))
	for ctx.Err() == nil {
		rec.timed("read", func() error {
			var head string
			if err := c.Call(&head, "eth_blockNumber"); err != nil {
				return err
			}
			var blk json.RawMessage
			return c.Call(&blk, "eth_getBlockByNumber", "latest", false)
		})
		wait(ctx, think/2+time.Duration(rng.Int63n(int64(think)+1)))
	}
}

// wait sleeps for d or until ctx ends.
func wait(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// rpcDial builds a JSON-RPC client on the shared HTTP transport.
func rpcDial(url string, hc *http.Client) *rpc.Client {
	c := rpc.Dial(url)
	c.SetHTTPClient(hc)
	return c
}

// handlerTransport routes HTTP requests straight into an in-process
// handler — no sockets, no file descriptors, same serialisation path.
type handlerTransport struct {
	h http.Handler
}

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rw := httptest.NewRecorder()
	t.h.ServeHTTP(rw, req)
	return rw.Result(), nil
}

func writeCSV(path string, ops []opReport) {
	f, err := os.Create(path)
	if err != nil {
		fatalf("csv: %v", err)
	}
	defer f.Close()
	w := csv.NewWriter(f)
	defer w.Flush()
	w.Write([]string{"op", "count", "errors", "p50_ms", "p95_ms", "p99_ms", "max_ms"})
	for _, op := range ops {
		w.Write([]string{
			op.Op, strconv.Itoa(op.Count), strconv.Itoa(op.Errors),
			fmt.Sprintf("%.3f", op.P50Ms), fmt.Sprintf("%.3f", op.P95Ms),
			fmt.Sprintf("%.3f", op.P99Ms), fmt.Sprintf("%.3f", op.MaxMs),
		})
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	os.Exit(2)
}
