// Command rentald runs the complete Evolving Rental Agreement Manager:
// an embedded devnet (blockchain tier), a content-addressed ABI store
// (IPFS tier), the embedded document database (data tier), the contract
// manager (business tier) and the web application (presentation tier) —
// the full four-tier architecture of the paper's Fig. 1 in one process.
//
// With -datadir every tier is durable: the chain journals sealed blocks
// under <datadir>/chain, agreements live in the write-ahead-logged
// document store under <datadir>/db, and ABI blobs under
// <datadir>/ipfs. A restarted rentald resumes with the same contracts,
// balances and agreement history.
//
// With -metrics-addr a sidecar listener exposes /metrics (Prometheus
// text format, covering every tier) and /healthz; -pprof additionally
// mounts /debug/pprof/ there. Web and RPC requests are logged as
// structured JSON lines with request IDs; -log-level tunes verbosity.
//
// Usage:
//
//	rentald [-addr :8080] [-rpc :8545] [-ws-addr :8546] [-datadir ./rentald-data] [-metrics-addr :9090] [-pprof] [-log-level info] [-trace] [-trace-sample 1] [-trace-slow 250ms]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"legalchain/internal/app"
	"legalchain/internal/chain"
	"legalchain/internal/core"
	"legalchain/internal/docstore"
	"legalchain/internal/ethtypes"
	"legalchain/internal/ipfs"
	"legalchain/internal/obs"
	"legalchain/internal/rpc"
	"legalchain/internal/wallet"
	"legalchain/internal/watch"
	"legalchain/internal/web3"
	"legalchain/internal/xtrace"
)

// readHeaderTimeout is how long a client may take to send its request
// headers on any of the listeners below, so a connection that opens and
// then says nothing does not hold a goroutine for ever.
const readHeaderTimeout = 10 * time.Second

func main() {
	var (
		addr        = flag.String("addr", ":8080", "web application listen address")
		rpcAddr     = flag.String("rpc", ":8545", "JSON-RPC listen address (empty to disable)")
		wsAddr      = flag.String("ws-addr", "", "WebSocket JSON-RPC + eth_subscribe listen address (empty = disabled)")
		datadir     = flag.String("datadir", "", "directory for durable data (empty = in-memory)")
		metrics     = flag.String("metrics-addr", "", "listen address for /metrics and /healthz (empty = disabled)")
		pprofOn     = flag.Bool("pprof", false, "expose /debug/pprof/ on the metrics listener")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, error")
		traceOn     = flag.Bool("trace", true, "record cross-tier spans (export on /debug/traces)")
		traceN      = flag.Int("trace-sample", 1, "trace every Nth root request (1 = all)")
		slowTr      = flag.Duration("trace-slow", 250*time.Millisecond, "log traces slower than this (0 = off)")
		stateStore  = flag.Bool("state-store", false, "disk-backed chain state: bounded-memory accounts under <datadir>/chain/state (requires -datadir)")
		stateCache  = flag.Int("state-cache", 32, "state-store read cache budget in MiB")
		snapKeep    = flag.Int("snapshots-keep", 2, "periodic state snapshots to retain on disk (>= 1; ignored with -state-store)")
		retain      = flag.Uint64("retain-blocks", 0, "block bodies kept in memory; older ones read back from the log (0 = all, requires -datadir)")
		watchOn     = flag.Bool("watch", true, "run the contract watchtower (timelines, obligations, alerts)")
		watchRules  = flag.String("watch-rules", "", "alert rules file, one rule per line (e.g. \"overdue > 0 for 2 blocks\")")
		rentPeriod  = flag.Uint64("watch-rent-period", 5, "blocks between rent payments before the obligation is overdue")
		maxHeadAge  = flag.Duration("max-head-age", 0, "readiness: /healthz turns 503 when the head view is older than this (0 = disabled)")
		maxWatchLag = flag.Uint64("max-watch-lag", 64, "readiness: /healthz turns 503 when the watchtower lags more than this many blocks (0 = disabled)")
	)
	flag.Parse()
	if *snapKeep < 1 {
		log.Fatal("rentald: -snapshots-keep must be >= 1")
	}
	if *stateCache < 1 {
		log.Fatal("rentald: -state-cache must be >= 1 (MiB)")
	}
	if (*stateStore || *retain > 0) && *datadir == "" {
		log.Fatal("rentald: -state-store and -retain-blocks require -datadir")
	}
	logger := obs.NewLogger(os.Stderr, obs.ParseLevel(*logLevel))
	xtrace.SetEnabled(*traceOn)
	xtrace.SetSampleEvery(*traceN)
	xtrace.SetSlowThreshold(*slowTr)
	xtrace.SetLogger(logger)

	// Blockchain tier with a faucet account.
	faucet := wallet.DevAccounts(wallet.DefaultDevSeed, 1)[0]
	g := chain.DefaultGenesis()
	g.Alloc = wallet.DevAlloc([]wallet.Account{faucet}, ethtypes.Ether(1_000_000_000))
	var chainOpts []chain.Option
	if *datadir != "" {
		chainOpts = append(chainOpts, chain.WithPersistence(chain.PersistConfig{
			DataDir:       filepath.Join(*datadir, "chain"),
			SnapshotsKeep: *snapKeep,
			StateStore:    *stateStore,
			StateCacheMB:  *stateCache,
			RetainBlocks:  *retain,
		}))
	}
	bc, err := chain.Open(g, chainOpts...)
	if err != nil {
		log.Fatal(err)
	}
	if rep := bc.RecoveryReport(); rep != nil {
		log.Printf("chain recovered: head #%d (snapshot used: %v, %d blocks replayed)",
			rep.Head, rep.SnapshotUsed, rep.BlocksReplayed)
		if rep.Dropped() {
			log.Printf("WARNING: dropped %d unverifiable blocks: %s", rep.BlocksDropped, rep.DroppedReason)
		}
	}
	ks := wallet.NewKeystore()
	ks.Import(faucet.Key)

	client, err := web3.NewClient(web3.NewLocalBackend(bc), ks)
	if err != nil {
		log.Fatal(err)
	}

	// IPFS + data tiers.
	var blobs ipfs.Store
	var store *docstore.Store
	if *datadir == "" {
		blobs = ipfs.NewMemStore()
		store, err = docstore.Open("")
	} else {
		blobs, err = ipfs.NewFileStore(filepath.Join(*datadir, "ipfs"))
		if err != nil {
			log.Fatal(err)
		}
		store, err = docstore.Open(filepath.Join(*datadir, "db"))
	}
	if err != nil {
		log.Fatal(err)
	}

	// Business + presentation tiers.
	manager := core.NewManager(client, ipfs.NewNode(blobs), store)
	webApp := app.New(manager)
	webApp.Faucet = faucet.Address

	// Watchtower: folds sealed blocks into contract lifecycle state,
	// durable under <datadir>/watch so restart replays instead of
	// re-reading chain history.
	var tower *watch.Tower
	if *watchOn {
		var rules []watch.Rule
		if *watchRules != "" {
			text, err := os.ReadFile(*watchRules)
			if err != nil {
				log.Fatalf("rentald: -watch-rules: %v", err)
			}
			if rules, err = watch.ParseRules(string(text)); err != nil {
				log.Fatalf("rentald: -watch-rules: %v", err)
			}
		}
		watchDir := ""
		if *datadir != "" {
			watchDir = filepath.Join(*datadir, "watch")
		}
		tower, err = watch.New(bc, watch.Config{Dir: watchDir, RentPeriod: *rentPeriod, Rules: rules})
		if err != nil {
			log.Fatal(err)
		}
		tower.Start()
		webApp.Watch = tower
	}

	var rpcSrv, wsSrv *http.Server
	if *rpcAddr != "" || *wsAddr != "" {
		rpcHandler := rpc.NewServer(bc, ks)
		rpcHandler.SetLogger(logger)
		if tower != nil {
			rpcHandler.SetWatch(tower)
		}
		if *rpcAddr != "" {
			rpcSrv = &http.Server{Addr: *rpcAddr, Handler: rpcHandler, ReadHeaderTimeout: readHeaderTimeout}
			go func() {
				log.Printf("JSON-RPC on %s", *rpcAddr)
				if err := rpcSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
					log.Fatal(err)
				}
			}()
		}
		if *wsAddr != "" {
			wsSrv = &http.Server{Addr: *wsAddr, Handler: http.HandlerFunc(rpcHandler.ServeWS), ReadHeaderTimeout: readHeaderTimeout}
			go func() {
				log.Printf("WebSocket JSON-RPC on %s", *wsAddr)
				if err := wsSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
					log.Fatal(err)
				}
			}()
		}
	}

	fmt.Printf("Evolving Rental Agreement Manager\n")
	fmt.Printf("  web UI:   http://localhost%s (register two users to play landlord and tenant)\n", *addr)
	if *rpcAddr != "" {
		fmt.Printf("  JSON-RPC: http://localhost%s\n", *rpcAddr)
	}

	webSrv := &http.Server{Addr: *addr, Handler: obs.LogRequests(logger, webApp.Handler()), ReadHeaderTimeout: readHeaderTimeout}
	go func() {
		if err := webSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	var opsSrv *http.Server
	if *metrics != "" {
		health := func() map[string]interface{} {
			h := obs.ChainHealth(bc)
			h["contracts"] = store.Count("contracts")
			if tower != nil {
				st := tower.Status()
				h["watch"] = map[string]interface{}{
					"folded": st.Folded, "lagBlocks": st.LagBlocks,
					"tracked": st.Tracked, "alertsFiring": st.AlertsFiring,
				}
			}
			return h
		}
		ready := func() (bool, string) {
			if *maxHeadAge > 0 {
				if age := time.Since(bc.View().PublishedAt()); age > *maxHeadAge {
					return false, fmt.Sprintf("head view is %s old (max %s)", age.Round(time.Millisecond), *maxHeadAge)
				}
			}
			if tower != nil && *maxWatchLag > 0 {
				if st := tower.Status(); st.LagBlocks > *maxWatchLag {
					return false, fmt.Sprintf("watchtower %d blocks behind (max %d)", st.LagBlocks, *maxWatchLag)
				}
			}
			return true, ""
		}
		opsSrv = &http.Server{Addr: *metrics, Handler: obs.OpsHandler(*pprofOn, health, ready), ReadHeaderTimeout: readHeaderTimeout}
		go func() {
			fmt.Printf("  metrics:  http://localhost%s/metrics (pprof: %v)\n", *metrics, *pprofOn)
			if err := opsSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Fatal(err)
			}
		}()
	}

	// Graceful shutdown: close listeners, then flush the chain snapshot
	// and the docstore WAL so restart resumes exactly here.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Println("shutting down...")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	webSrv.Shutdown(ctx)
	if rpcSrv != nil {
		rpcSrv.Shutdown(ctx)
	}
	if wsSrv != nil {
		// Hijacked WebSocket connections end when bc.Close shuts the hub.
		wsSrv.Shutdown(ctx)
	}
	if opsSrv != nil {
		opsSrv.Shutdown(ctx)
	}
	if tower != nil {
		// Before the chain: Close flushes the event log after the final
		// fold, and the hub subscription must drain before bc.Close.
		if err := tower.Close(); err != nil {
			log.Printf("watchtower close failed: %v", err)
		}
	}
	if err := bc.Close(); err != nil {
		log.Printf("chain flush failed: %v", err)
	}
	if err := store.Close(); err != nil {
		log.Printf("docstore close failed: %v", err)
	}
}
