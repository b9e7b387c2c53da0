// Package node builds, serves and stops one legalchain node: the chain,
// the optional watchtower, the JSON-RPC/WebSocket endpoints, the ops
// sidecar and, when a web address is set, the IPFS, docstore, manager
// and web application tiers of the paper's Fig. 1. cmd/devnet and
// cmd/rentald are two flag profiles of it. A data directory holds one
// subdirectory per durable tier: chain/, db/ and ipfs/. The watchtower
// stores nothing: it refolds the chain when the node starts.
package node

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"legalchain/internal/app"
	"legalchain/internal/chain"
	"legalchain/internal/core"
	"legalchain/internal/docstore"
	"legalchain/internal/ipfs"
	"legalchain/internal/obs"
	"legalchain/internal/rpc"
	"legalchain/internal/wallet"
	"legalchain/internal/watch"
	"legalchain/internal/web3"
	"legalchain/internal/xtrace"
)

// readHeaderTimeout is how long a client may take to send its request
// headers, so a connection that opens and then says nothing does not
// hold a goroutine for ever.
const readHeaderTimeout = 10 * time.Second

// Config describes one node. An empty address leaves that listener off;
// an empty DataDir keeps every tier in memory.
type Config struct {
	Genesis *chain.Genesis
	// Accounts are imported into the keystore; with WebAddr set the
	// first one is the faucet that funds newly registered users.
	Accounts                     []wallet.Account
	DataDir                      string
	RPCAddr, WSAddr, MetricsAddr string
	WebAddr                      string // builds the IPFS, docstore, manager and app tiers
	Pprof                        bool   // /debug/pprof/ on the metrics listener
	LogLevel                     string
	Trace                        bool
	TraceSlow                    time.Duration
	StateStore                   bool
	StateCacheMB                 int
	RetainBlocks                 uint64
	Watch                        bool
	WatchRules                   string // alert rules file, one rule per line
	WatchRentPeriod              uint64
	MaxHeadAge                   time.Duration // readiness bounds of /healthz (0 = unchecked)
	MaxWatchLag                  uint64
}

// RegisterFlags registers the flags devnet and rentald share on fs, bound
// to cfg. -watch defaults to cfg.Watch as the caller set it; every other
// default is fixed here. Start validates the result.
func RegisterFlags(fs *flag.FlagSet, cfg *Config) {
	fs.StringVar(&cfg.WSAddr, "ws-addr", "", "listen address for WebSocket JSON-RPC + eth_subscribe (empty = disabled)")
	fs.StringVar(&cfg.DataDir, "datadir", "", "directory for durable data: chain/, db/, ipfs/ (empty = in-memory)")
	fs.StringVar(&cfg.MetricsAddr, "metrics-addr", "", "listen address for /metrics and /healthz (empty = disabled)")
	fs.BoolVar(&cfg.Pprof, "pprof", false, "expose /debug/pprof/ on the metrics listener")
	fs.StringVar(&cfg.LogLevel, "log-level", "info", "log level: debug, info, warn, error")
	fs.BoolVar(&cfg.Trace, "trace", true, "record cross-tier spans (export on /debug/traces)")
	fs.DurationVar(&cfg.TraceSlow, "trace-slow", 250*time.Millisecond, "log traces slower than this (0 = off)")
	fs.BoolVar(&cfg.StateStore, "state-store", false, "disk-backed chain state: bounded-memory accounts under <datadir>/chain/state (requires -datadir)")
	fs.IntVar(&cfg.StateCacheMB, "state-cache", 32, "state-store read cache budget in MiB")
	fs.Uint64Var(&cfg.RetainBlocks, "retain-blocks", 0, "block bodies kept in memory; older ones read back from the log (0 = all, requires -datadir)")
	fs.BoolVar(&cfg.Watch, "watch", cfg.Watch, "run the contract watchtower (legal_watchStatus, timelines, obligations, alerts)")
	fs.StringVar(&cfg.WatchRules, "watch-rules", "", "alert rules file, one rule per line (e.g. \"overdue > 0 for 2 blocks\")")
	fs.Uint64Var(&cfg.WatchRentPeriod, "watch-rent-period", 5, "blocks between rent payments before the obligation is overdue")
	fs.DurationVar(&cfg.MaxHeadAge, "max-head-age", 0, "readiness: /healthz turns 503 when the head view is older than this (0 = disabled)")
	fs.Uint64Var(&cfg.MaxWatchLag, "max-watch-lag", 64, "readiness: /healthz turns 503 when the watchtower lags more than this many blocks (0 = disabled)")
}

func (c *Config) validate() error {
	switch {
	case c.StateCacheMB < 1:
		return errors.New("node: -state-cache must be >= 1 (MiB)")
	case (c.StateStore || c.RetainBlocks > 0) && c.DataDir == "":
		return errors.New("node: -state-store and -retain-blocks require -datadir")
	case c.WebAddr != "" && len(c.Accounts) == 0:
		return errors.New("node: the web application needs a faucet account")
	case c.DataDir == "":
		return nil
	}
	// The old devnet layout kept the block log at the top of the data
	// directory: never open a fresh chain beside it.
	if old, _ := filepath.Glob(filepath.Join(c.DataDir, "blocks-*.seg")); len(old) > 0 {
		return fmt.Errorf("node: %s holds a block log at its top level; move its blocks-*.seg, state-*.snap and state/ into %s",
			c.DataDir, filepath.Join(c.DataDir, "chain"))
	}
	return nil
}

// Node is one running node.
type Node struct {
	Chain *chain.Blockchain
	// Manager is the business tier's contract manager, nil without a web
	// address. It binds what the docstore's registry and system rows
	// name, so a restarted node resolves every version deployed before.
	Manager *core.Manager
	// The bound listen addresses ("" when off): a ":0" resolves here.
	RPCAddr, WSAddr, WebAddr, MetricsAddr string

	cfg     Config
	log     *slog.Logger
	tower   *watch.Tower
	store   *docstore.Store
	servers []*http.Server
	lns     []net.Listener
}

// Start opens every tier and binds every listener before it serves any,
// so a failure returns here with everything it opened closed again.
func Start(cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := &Node{cfg: cfg, log: obs.NewLogger(os.Stderr, obs.ParseLevel(cfg.LogLevel))}
	xtrace.SetEnabled(cfg.Trace)
	xtrace.SetSlowThreshold(cfg.TraceSlow)
	xtrace.SetLogger(n.log)
	if err := n.open(); err != nil {
		for _, ln := range n.lns {
			ln.Close()
		}
		n.Shutdown(context.Background())
		return nil, err
	}
	for i, srv := range n.servers {
		go func(srv *http.Server, ln net.Listener) {
			if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				n.log.Error("listener failed", "addr", ln.Addr().String(), "err", err)
			}
		}(srv, n.lns[i])
	}
	return n, nil
}

// dir names a tier's directory in the data directory ("" in memory).
func (n *Node) dir(tier string) string {
	if n.cfg.DataDir == "" {
		return ""
	}
	return filepath.Join(n.cfg.DataDir, tier)
}

func (n *Node) open() error {
	cfg := &n.cfg
	var opts []chain.Option
	if cfg.DataDir != "" {
		opts = append(opts, chain.WithPersistence(chain.PersistConfig{DataDir: n.dir("chain"),
			StateStore: cfg.StateStore, StateCacheMB: cfg.StateCacheMB, RetainBlocks: cfg.RetainBlocks}))
	}
	var err error
	if n.Chain, err = chain.Open(cfg.Genesis, opts...); err != nil {
		return err
	}
	if rep := n.Chain.RecoveryReport(); rep != nil {
		n.log.Info("chain recovered", "dir", n.dir("chain"), "report", *rep, "dropped", rep.Dropped())
	}
	ks := wallet.NewKeystore()
	for _, acc := range cfg.Accounts {
		ks.Import(acc.Key)
	}
	if cfg.Watch {
		var rules []watch.Rule
		if cfg.WatchRules != "" {
			text, err := os.ReadFile(cfg.WatchRules)
			if err == nil {
				rules, err = watch.ParseRules(string(text))
			}
			if err != nil {
				return fmt.Errorf("node: -watch-rules: %w", err)
			}
		}
		if n.tower, err = watch.New(n.Chain, watch.Config{RentPeriod: cfg.WatchRentPeriod, Rules: rules}); err != nil {
			return err
		}
		// The consumer starts by refolding the chain, beside the rest of
		// open; the Sync at the end waits for it.
		n.tower.Start()
	}

	type endpoint struct {
		name, addr string
		bound      *string
		h          http.Handler
	}
	var eps []endpoint
	if cfg.WebAddr != "" {
		var blobs ipfs.Store = ipfs.NewMemStore()
		if cfg.DataDir != "" {
			if blobs, err = ipfs.NewFileStore(n.dir("ipfs")); err != nil {
				return err
			}
		}
		if n.store, err = docstore.Open(n.dir("db")); err != nil {
			return err
		}
		client, err := web3.NewClient(web3.NewLocalBackend(n.Chain), ks)
		if err != nil {
			return err
		}
		n.Manager = core.NewManager(client, ipfs.NewNode(blobs), n.store)
		webApp := app.New(n.Manager)
		webApp.Faucet, webApp.Watch = cfg.Accounts[0].Address, n.tower
		eps = append(eps, endpoint{"web", cfg.WebAddr, &n.WebAddr, obs.LogRequests(n.log, webApp.Handler())})
	}
	if cfg.RPCAddr != "" || cfg.WSAddr != "" {
		rpcSrv := rpc.NewServer(n.Chain, ks)
		rpcSrv.SetLogger(n.log)
		rpcSrv.SetWatch(n.tower)
		eps = append(eps, endpoint{"rpc", cfg.RPCAddr, &n.RPCAddr, rpcSrv},
			endpoint{"ws", cfg.WSAddr, &n.WSAddr, http.HandlerFunc(rpcSrv.ServeWS)})
	}
	eps = append(eps, endpoint{"metrics", cfg.MetricsAddr, &n.MetricsAddr, obs.OpsHandler(cfg.Pprof, n.health, n.ready)})
	for _, ep := range eps {
		if ep.addr == "" {
			continue
		}
		ln, err := net.Listen("tcp", ep.addr)
		if err != nil {
			return fmt.Errorf("node: %s listener: %w", ep.name, err)
		}
		*ep.bound = ln.Addr().String()
		n.lns = append(n.lns, ln)
		n.servers = append(n.servers, &http.Server{Handler: ep.h, ReadHeaderTimeout: readHeaderTimeout})
		n.log.Info("listening", "service", ep.name, "addr", *ep.bound)
	}
	if n.tower != nil {
		// No listener serves before the tower has refolded the chain, so
		// a restarted node shows a caught-up tower.
		n.tower.Sync()
	}
	return nil
}

// health contributes the node's fields to /healthz.
func (n *Node) health() map[string]interface{} {
	h := obs.ChainHealth(n.Chain)
	h["chainId"] = n.Chain.ChainID()
	if n.store != nil {
		h["contracts"] = n.store.Count("contracts")
	}
	if n.tower != nil {
		st := n.tower.Summary()
		h["watch"] = map[string]interface{}{"folded": st.Folded, "lagBlocks": st.LagBlocks,
			"tracked": st.Tracked, "alertsFiring": st.AlertsFiring}
	}
	return h
}

// ready is the /healthz readiness probe. A latched persistence failure
// makes the node not ready for good: the chain serves from memory but
// journals nothing more until it is restarted.
func (n *Node) ready() (bool, string) {
	if err := n.Chain.PersistErr(); err != nil {
		return false, fmt.Sprintf("chain persistence failed, restart the node: %v", err)
	}
	if maxAge := n.cfg.MaxHeadAge; maxAge > 0 {
		if age := time.Since(n.Chain.View().PublishedAt()); age > maxAge {
			return false, fmt.Sprintf("head view is %s old (max %s)", age.Round(time.Millisecond), maxAge)
		}
	}
	if maxLag := n.cfg.MaxWatchLag; n.tower != nil && maxLag > 0 {
		if st := n.tower.Summary(); st.LagBlocks > maxLag {
			return false, fmt.Sprintf("watchtower %d blocks behind (max %d)", st.LagBlocks, maxLag)
		}
	}
	return true, ""
}

// Shutdown stops the node and returns the first error. Listeners stop
// first, so no request arrives mid-teardown. The watchtower closes
// before the chain: its hub subscription must drain before the chain
// closes the hub. Closing the
// chain writes the final snapshot, syncs the log and, by closing the
// hub, ends hijacked WebSocket connections, which http.Server.Shutdown
// cannot see. The docstore closes last.
func (n *Node) Shutdown(ctx context.Context) error {
	var errs []error
	for _, srv := range n.servers {
		errs = append(errs, srv.Shutdown(ctx))
	}
	if n.tower != nil {
		n.tower.Close()
	}
	if n.Chain != nil {
		errs = append(errs, n.Chain.Close())
	}
	if n.store != nil {
		errs = append(errs, n.store.Close())
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
