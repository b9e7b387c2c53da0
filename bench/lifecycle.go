package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"legalchain/internal/chain"
	"legalchain/internal/core"
	"legalchain/internal/docstore"
	"legalchain/internal/ethtypes"
	"legalchain/internal/ipfs"
	"legalchain/internal/wallet"
	"legalchain/internal/web3"
)

// lifecycle_mem and lifecycle_durable: two landlord/tenant clients in a
// closed loop over one shared node, each running the Fig. 4 lifecycle
// deploy → confirm → 2×pay → modify → confirm-modification → terminate
// a fixed number of times. The durable variant opens the node, the
// registry and the blob store the way `rentald -datadir` does.

const (
	lifecycleClients = 2
	warmupLifecycles = 2 // per client, untimed, part of set-up
)

// lcClient is one landlord/tenant pair with its own contract manager.
type lcClient struct {
	landlord ethtypes.Address
	tenant   ethtypes.Address
	mgr      *core.Manager
	svc      *core.RentalService
	rng      *rand.Rand
	tr       *tracer      // nil in an untraced run
	blobs    *tracedStore // nil in an untraced run
	store    *docstore.Store
	latest   []ethtypes.Address // newest version of every lifecycle completed
}

// lcEnv is the stack one set-up builds.
type lcEnv struct {
	bc      *chain.Blockchain
	genesis *chain.Genesis
	ks      *wallet.Keystore
	clients []*lcClient
	store   *docstore.Store // durable only: the registry shared by both managers
	dir     string          // durable only
}

func (e *lcEnv) close() {
	for _, c := range e.clients {
		if c.store != e.store {
			c.store.Close()
		}
	}
	if e.store != nil {
		e.store.Close()
	}
	e.bc.Close()
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// setupLifecycle builds node, registry, blob store and the two clients,
// and runs the warm-up lifecycles (which also deploy each manager's
// DataStorage contract).
func setupLifecycle(r *run, in *inputs, dir string) (*lcEnv, error) {
	env := &lcEnv{dir: dir, genesis: in.genesis, ks: in.ks}
	origin := time.Now() // both clients' spans count from here
	var shared ipfs.Store
	if dir == "" {
		env.bc = chain.New(in.genesis)
	} else {
		// rentald -datadir: every PersistConfig field but the directory
		// is left at its default, so the fsync policy and the
		// durable-state mode are whatever the program's defaults are.
		bc, err := chain.Open(in.genesis, chain.WithPersistence(chain.PersistConfig{DataDir: filepath.Join(dir, "chain")}))
		if err != nil {
			return nil, err
		}
		env.bc = bc
		if env.store, err = docstore.Open(filepath.Join(dir, "db")); err != nil {
			return nil, err
		}
		if shared, err = ipfs.NewFileStore(filepath.Join(dir, "ipfs")); err != nil {
			return nil, err
		}
	}
	for i := 0; i < lifecycleClients; i++ {
		c := &lcClient{
			landlord: in.accounts[2*i].Address, tenant: in.accounts[2*i+1].Address,
			rng: rngFor(r.cfg, i), store: env.store,
		}
		var backend web3.Backend = web3.NewLocalBackend(env.bc)
		blobs := shared
		if blobs == nil {
			blobs = ipfs.NewMemStore()
		}
		if r.cfg.trace {
			c.tr = newTracer(origin, i)
			backend = &tracedBackend{LocalBackend: web3.NewLocalBackend(env.bc), tr: c.tr}
			c.blobs = &tracedStore{Store: blobs, tr: c.tr}
			blobs = c.blobs
		}
		client, err := web3.NewClient(backend, in.ks)
		if err != nil {
			return nil, err
		}
		if c.store == nil {
			if c.store, err = docstore.Open(""); err != nil {
				return nil, err
			}
		}
		c.mgr = core.NewManager(client, ipfs.NewNode(blobs), c.store)
		c.svc = core.NewRentalService(c.mgr)
		env.clients = append(env.clients, c)
	}
	for _, c := range env.clients {
		for i := 0; i < warmupLifecycles; i++ {
			if err := c.lifecycle(nil); err != nil {
				return nil, fmt.Errorf("warm-up lifecycle: %w", err)
			}
		}
		c.latest = nil
	}
	return env, nil
}

// lifecycle runs one full agreement. With r nil (warm-up) nothing is
// counted or timed.
func (c *lcClient) lifecycle(r *run) error {
	terms := rentalTerms(c.rng)
	amended := amendedTerms(terms, c.rng)
	step := func(name string, fn func() error) error {
		if r == nil {
			return fn()
		}
		defer c.tr.end(c.tr.begin("core." + name))
		return r.op(name, fn)
	}
	var v1, v2 ethtypes.Address
	if err := step("deploy", func() error {
		dep, err := c.svc.DeployRental(c.landlord, terms)
		if err == nil {
			v1 = dep.Contract.Address
		}
		return err
	}); err != nil {
		return err
	}
	if err := step("confirm", func() error { return c.svc.Confirm(c.tenant, v1) }); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if err := step("pay", func() error {
			rcpt, err := c.svc.PayRent(c.tenant, v1)
			if err == nil && !rcpt.Succeeded() {
				err = fmt.Errorf("payRent reverted: %s", rcpt.RevertReason)
			}
			return err
		}); err != nil {
			return err
		}
	}
	if err := step("modify", func() error {
		dep, err := c.svc.Modify(c.landlord, v1, amended)
		if err == nil {
			v2 = dep.Contract.Address
		}
		return err
	}); err != nil {
		return err
	}
	if err := step("confirm_modification", func() error { return c.svc.ConfirmModification(c.tenant, v2) }); err != nil {
		return err
	}
	if err := step("terminate", func() error { return c.svc.Terminate(c.tenant, v2) }); err != nil {
		return err
	}
	c.latest = append(c.latest, v2)
	return nil
}

func runLifecycle(r *run, durable bool) error {
	perSecond := lifecyclesPerClientSecond
	if durable {
		perSecond = durableLifecyclesPerClientSecond
	}
	perClient := scaled(perSecond, r.cfg.seconds)
	r.note("clients", lifecycleClients)
	r.note("lifecycles_per_client", perClient)
	r.note("warmup_lifecycles_per_client", warmupLifecycles)

	// Set-up, several times over; the last one is measured on.
	env, err := setUp(r, func(k int) (*lcEnv, error) {
		dir := ""
		if durable {
			dir = filepath.Join(r.cfg.dir, fmt.Sprintf("data-%d", k))
		}
		return setupLifecycle(r, newInputs(r.cfg, 2*lifecycleClients), dir)
	})
	if err != nil {
		return err
	}
	bc := env.bc

	supply := bc.TotalSupply()
	headBefore := bc.BlockNumber()
	before := scrape()
	var diskBefore int64
	if durable {
		diskBefore = dirBytes(env.dir)
	}

	// The timed part: fixed work, both clients released together.
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range env.clients {
		wg.Add(1)
		go func(c *lcClient) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				// Every other lifecycle is traced, so traced and
				// untraced lifecycles see the same node, chain height and
				// neighbour, and their difference is the tracing cost.
				kind := "lifecycle"
				if c.tr != nil {
					c.tr.on = i%2 == 0
					c.tr.group = int32(i)
					if c.tr.on {
						kind = "lifecycle.traced"
					}
				}
				root := c.tr.begin("lifecycle")
				t0 := time.Now()
				err := c.lifecycle(r)
				d := time.Since(t0)
				c.tr.end(root)
				if err == nil {
					r.rec.add(kind, d)
				}
				r.host.burst() // the client's pause between two lifecycles
			}
			if c.tr != nil {
				c.tr.on = false
			}
		}(c)
	}
	wg.Wait()
	r.note("timed_part_s", time.Since(start).Seconds())
	headAfter := bc.BlockNumber()
	after := scrape()

	done := 0
	for _, c := range env.clients {
		done += len(c.latest)
	}
	if done == 0 {
		return fmt.Errorf("no lifecycle completed")
	}
	// Throughput over the time spent inside lifecycles: between two of
	// them a client measures the host (host.go), which is not the
	// program's time.
	inLifecycles := (r.rec.sum("lifecycle") + r.rec.sum("lifecycle.traced")) / 1e3
	rate := lifecycleClients * float64(done) / inLifecycles
	r.set("lifecycles_per_s", rate)
	r.set("ops_per_s", rate)
	r.setTiming("op_p50_ms", "pay", 0.5, 1)
	r.setTiming("pay_p50_ms", "pay", 0.5, 1)
	r.setTiming("deploy_p50_ms", "deploy", 0.5, 1)
	r.setTiming("modify_p50_ms", "modify", 0.5, 1)
	r.setTiming("core.pay.p95_ms", "pay", 0.95, 1)
	r.setTiming("core.deploy.p95_ms", "deploy", 0.95, 1)
	r.setTiming("core.modify.p95_ms", "modify", 0.95, 1)

	// Oracle: what the sealed blocks say.
	tally := tallyBlocks(bc, headBefore, headAfter, r.cfg.probes)
	r.check(tally.failed == 0, "%d of %d receipts carry a failure status", tally.failed, tally.txs)
	r.check(bc.TotalSupply() == supply, "total ether supply changed: %s -> %s", supply, bc.TotalSupply())
	var gasPer []float64
	var gasAll uint64
	for _, c := range env.clients {
		g := tally.gasBy[c.landlord] + tally.gasBy[c.tenant]
		gasAll += g
		if n := len(c.latest); n > 0 {
			gasPer = append(gasPer, float64(g)/float64(n))
		}
	}
	r.set("gas_per_lifecycle", float64(gasAll)/float64(done))
	r.set("chain.txs_per_lifecycle", float64(tally.txs)/float64(done))
	// The two clients run the same code on the same inputs but for
	// addresses and amounts, whose zero bytes price calldata a few gas
	// apart; anything beyond that is a different code path.
	for _, g := range gasPer {
		r.check(relDiff(g, gasPer[0]) < 1e-3, "per-client gas per lifecycle differs: %.0f vs %.0f", g, gasPer[0])
	}
	for _, c := range env.clients {
		c.checkChains(r)
	}

	if durable {
		if err := finishDurable(r, env, done, diskBefore, tally, before, after); err != nil {
			return err
		}
	} else {
		if r.cfg.trace {
			probeSigning(r, bc, env.ks, tally.raw)
			probeVerifyUpgrade(r, env.clients[0])
			probeEVMCall(r, bc, env.clients[0].latest[0], env.clients[0].tenant)
		}
		env.close()
	}

	if r.cfg.trace {
		var tracers []*tracer
		var ipfsBytes int64
		for _, c := range env.clients {
			tracers = append(tracers, c.tr)
			ipfsBytes += c.blobs.bytes
		}
		r.tracers = tracers
		lifecycleBudget(r, tracers, ipfsBytes)
	}
	return nil
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	d := (a - b) / b
	if d < 0 {
		d = -d
	}
	return d
}

// checkChains verifies, for every version chain this client built, that
// the on-chain list is a consistent two-element chain ending in the
// version the client holds, and that every registry row names code that
// exists on chain.
func (c *lcClient) checkChains(r *run) {
	for _, addr := range c.latest {
		line, err := c.mgr.WalkChain(addr)
		ok := err == nil && len(line) == 2 && line[1].Address == addr && core.VerifyChain(line) == nil
		r.check(ok, "version chain of %s: len %d, err %v", addr, len(line), err)
	}
	missing := 0
	rows := c.mgr.Rows()
	for _, row := range rows {
		code, err := c.mgr.Client.Backend().GetCode(ethtypes.HexToAddress(row.Address))
		if err != nil || len(code) == 0 {
			missing++
		}
	}
	r.check(missing == 0 && len(rows) > 0, "%d of %d registry rows have no code on chain", missing, len(rows))
}

// lifecycleBudget turns the traced lifecycles' spans into the per-layer
// numbers and the budget table. Self times partition each root span, so
// the rows add up to the traced lifecycles' wall-clock.
func lifecycleBudget(r *run, tracers []*tracer, ipfsBytes int64) {
	self, count := selfTimes(tracers)
	n := float64(count["lifecycle"])
	if n == 0 {
		return
	}
	layer := map[string]float64{}
	for name, ms := range self {
		switch {
		case name == "lifecycle":
			layer["bench.between_ops"] += ms
		case strings.HasPrefix(name, "core."):
			layer["core.self"] += ms
		default:
			layer[name] += ms
		}
	}
	for _, name := range []string{"core.self", spanSendRaw, spanCall, spanEstimate, spanRead, spanIPFSAdd, spanIPFSGet, "bench.between_ops"} {
		r.budget = append(r.budget, budgetRow{Layer: name, Ms: layer[name] / n})
	}
	r.set("core.self.ms_per_lifecycle", layer["core.self"]/n)
	r.set("chain.send_raw.ms_per_lifecycle", layer[spanSendRaw]/n)
	r.set("chain.call.ms_per_lifecycle", layer[spanCall]/n)
	r.set("chain.estimate_gas.ms_per_lifecycle", layer[spanEstimate]/n)
	r.set("chain.read.ms_per_lifecycle", layer[spanRead]/n)
	r.set("ipfs.add.ms_per_lifecycle", layer[spanIPFSAdd]/n)
	r.set("ipfs.get.ms_per_lifecycle", layer[spanIPFSGet]/n)
	r.set("ipfs.bytes_per_lifecycle", float64(ipfsBytes)/n)
	r.set("chain.calls_per_lifecycle", float64(count[spanCall])/n)
	r.set("chain.send_raw.p50_ms", quantileOf(durationsOf(tracers, spanSendRaw), 0.5))
	r.set("chain.call.p50_us", quantileOf(durationsOf(tracers, spanCall), 0.5)*1e3)
	r.set("ipfs.get.p50_us", quantileOf(durationsOf(tracers, spanIPFSGet), 0.5)*1e3)

	traced := r.rec.sorted("lifecycle.traced")
	plain := r.rec.sorted("lifecycle")
	r.budgetWallMs = meanOf(traced)
	overhead := 0.0 // a run too short to hold an untraced lifecycle has nothing to compare
	if len(plain) > 0 {
		overhead = (meanOf(traced)/meanOf(plain) - 1) * 100
	}
	r.set("bench.trace_overhead.pct", overhead)
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
