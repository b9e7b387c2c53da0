package main

import (
	"fmt"
	"time"

	"legalchain/internal/abi"
	"legalchain/internal/chain"
	"legalchain/internal/contracts"
	"legalchain/internal/core"
	"legalchain/internal/docstore"
	"legalchain/internal/ethtypes"
	"legalchain/internal/ipfs"
	"legalchain/internal/web3"
)

// audit_deep: the paper's own contribution on its own — walking the
// evidence line and rebuilding bindings from an address. Set-up builds a
// few agreements, each extended to eight versions with data keys on the
// first, so the newest reads them through a seven-deep alias chain. The
// timed part is one closed-loop auditor drawing reads from a seeded mix;
// nothing is signed or sealed.

const (
	auditVersions        = 8
	auditExtraKeys       = 4
	auditAgreementsPer10 = 4 // agreements at the 10 s run length
)

// The auditor's mix, in percent: WalkChain (with a Head or Latest lookup
// now and then), LoadSnapshot, RentHistory, cold resolve; the rest is
// AuditChain.
const (
	mixWalk     = 50
	mixSnapshot = 20
	mixHistory  = 15
	mixCold     = 10
)

// audited is one agreement's evidence line as set-up built it.
type audited struct {
	versions []ethtypes.Address // v1..v8
	snapshot map[string]string  // what LoadSnapshot of the newest must return
	payments int                // what RentHistory must return
}

type auditEnv struct {
	bc       *chain.Blockchain
	in       *inputs
	store    *docstore.Store
	node     *ipfs.Node
	client   *web3.Client
	mgr      *core.Manager
	svc      *core.RentalService
	tr       *tracer
	blobs    *tracedStore
	landlord ethtypes.Address
	tenant   ethtypes.Address
	lines    []audited
}

func (e *auditEnv) close() {
	e.bc.Close()
	e.store.Close()
}

func setupAudit(r *run) (*auditEnv, error) {
	in := newInputs(r.cfg, 2)
	e := &auditEnv{bc: chain.New(in.genesis), in: in, landlord: in.accounts[0].Address, tenant: in.accounts[1].Address}
	var backend web3.Backend = web3.NewLocalBackend(e.bc)
	var blobs ipfs.Store = ipfs.NewMemStore()
	if r.cfg.trace {
		e.tr = newTracer(time.Now(), 0)
		backend = &tracedBackend{LocalBackend: web3.NewLocalBackend(e.bc), tr: e.tr}
		e.blobs = &tracedStore{Store: blobs, tr: e.tr}
		blobs = e.blobs
	}
	var err error
	if e.client, err = web3.NewClient(backend, in.ks); err != nil {
		return nil, err
	}
	if e.store, err = docstore.Open(""); err != nil {
		return nil, err
	}
	e.node = ipfs.NewNode(blobs)
	e.mgr = core.NewManager(e.client, e.node, e.store)
	e.svc = core.NewRentalService(e.mgr)

	rng := rngFor(r.cfg, 0)
	n := scaled(auditAgreementsPer10/10.0, r.cfg.seconds)
	if n > auditAgreementsPer10 {
		n = auditAgreementsPer10
	}
	for a := 0; a < n; a++ {
		terms := rentalTerms(rng)
		dep, err := e.svc.DeployRental(e.landlord, terms)
		if err != nil {
			return nil, err
		}
		line := audited{versions: []ethtypes.Address{dep.Contract.Address}}
		cur := dep.Contract.Address
		if err := e.svc.Confirm(e.tenant, cur); err != nil {
			return nil, err
		}
		for k := 0; k < auditExtraKeys; k++ {
			key, val := fmt.Sprintf("clause-%d", k), fmt.Sprintf("%016x", rng.Uint64())
			if _, err := e.mgr.SetValue(e.landlord, cur, key, val); err != nil {
				return nil, err
			}
		}
		for v := 1; ; v++ {
			if _, err := e.svc.PayRent(e.tenant, cur); err != nil {
				return nil, err
			}
			line.payments++
			if v == auditVersions {
				break
			}
			next, err := e.svc.Modify(e.landlord, cur, amendedTerms(terms, rng))
			if err != nil {
				return nil, fmt.Errorf("building version %d: %w", v+1, err)
			}
			cur = next.Contract.Address
			if err := e.svc.ConfirmModification(e.tenant, cur); err != nil {
				return nil, err
			}
			line.versions = append(line.versions, cur)
		}
		if line.snapshot, err = e.mgr.LoadSnapshot(e.landlord, cur); err != nil {
			return nil, err
		}
		if len(line.snapshot) < auditExtraKeys {
			return nil, fmt.Errorf("newest version sees %d data keys through the alias chain, want at least %d", len(line.snapshot), auditExtraKeys)
		}
		e.lines = append(e.lines, line)
	}
	return e, nil
}

func runAudit(r *run) error {
	env, err := setUp(r, func(int) (*auditEnv, error) { return setupAudit(r) })
	if err != nil {
		return err
	}
	defer env.close()
	r.note("agreements", len(env.lines))
	r.note("versions_per_agreement", auditVersions)
	r.note("clients", 1)
	bc := env.bc

	rng := rngFor(r.cfg, 1)
	headBefore := bc.BlockNumber()
	if env.tr != nil {
		env.tr.on = true
	}
	start := time.Now()
	deadline := start.Add(time.Duration(r.cfg.seconds * float64(time.Second)))
	ops, pace := 0, r.host.pacer()
	for time.Now().Before(deadline) {
		pace.tick()
		line := &env.lines[rng.Intn(len(env.lines))]
		from := line.versions[rng.Intn(len(line.versions))]
		newest := line.versions[len(line.versions)-1]
		if env.tr != nil {
			env.tr.group++
		}
		var err error
		switch draw := rng.Intn(100); {
		case draw < mixWalk:
			err = env.timed(r, "walk", func() error {
				switch draw % 10 {
				case 0:
					head, err := env.mgr.Head(from)
					return expect(err, head == line.versions[0], "Head(%s) = %s", from, head)
				case 1:
					latest, err := env.mgr.Latest(from)
					return expect(err, latest == newest, "Latest(%s) = %s", from, latest)
				}
				walked, err := env.mgr.WalkChain(from)
				if err == nil {
					err = line.matches(walked)
				}
				return err
			})
		case draw < mixWalk+mixSnapshot:
			err = env.timed(r, "load_snapshot", func() error {
				got, err := env.mgr.LoadSnapshot(env.landlord, newest)
				same := len(got) == len(line.snapshot)
				for k, v := range line.snapshot {
					same = same && got[k] == v
				}
				return expect(err, same, "LoadSnapshot(%s) returned %d keys, want %d", newest, len(got), len(line.snapshot))
			})
		case draw < mixWalk+mixSnapshot+mixHistory:
			err = env.timed(r, "rent_history", func() error {
				hist, err := env.svc.RentHistory(env.tenant, from)
				return expect(err, len(hist) == line.payments, "RentHistory(%s) has %d payments, want %d", from, len(hist), line.payments)
			})
		case draw < mixWalk+mixSnapshot+mixHistory+mixCold:
			// The auditor who holds nothing but an address from a
			// next/prev pointer: a manager with no cached ABI over the
			// same content store and registry.
			err = env.timed(r, "cold_resolve", func() error {
				cold := core.NewManager(env.client, env.node, env.store)
				walked, err := cold.WalkChain(from)
				if err == nil {
					err = line.matches(walked)
				}
				for _, v := range walked {
					if err == nil {
						_, err = cold.BindVersion(v.Address)
					}
				}
				return err
			})
		default:
			err = env.timed(r, "audit_chain", func() error {
				rep, err := env.mgr.AuditChain(env.tenant, from)
				return expect(err, rep != nil && rep.ChainVerified && len(rep.Versions) == len(line.versions) && rep.Head == newest.Hex(),
					"AuditChain(%s) did not verify the %d-version chain", from, len(line.versions))
			})
		}
		if err == nil {
			ops++
		}
	}
	if env.tr != nil {
		env.tr.on = false
	}

	perSecond := float64(ops) / (time.Since(start) - pace.paused).Seconds()
	r.set("audit_ops_per_s", perSecond)
	r.set("ops_per_s", perSecond)
	r.setTiming("walk_p50_ms", "walk", 0.5, 1)
	r.setTiming("op_p50_ms", "walk", 0.5, 1)
	r.setTiming("core.cold_resolve.p50_ms", "cold_resolve", 0.5, 1)
	r.setTiming("core.load_snapshot.p50_ms", "load_snapshot", 0.5, 1)
	r.setTiming("core.rent_history.p50_ms", "rent_history", 0.5, 1)
	r.setTiming("core.audit_chain.p50_ms", "audit_chain", 0.5, 1)
	r.check(bc.BlockNumber() == headBefore, "the audit sealed %d blocks; it must seal none", bc.BlockNumber()-headBefore)

	if r.cfg.trace {
		r.tracers = []*tracer{env.tr}
		_, count := selfTimes(r.tracers)
		r.check(count[spanSendRaw] == 0, "the audit sent %d transactions; it must send none", count[spanSendRaw])
		// Calls into the node per WalkChain, and blob fetches per cold
		// resolve: the children of those two operations' spans.
		children := func(parent, child string) float64 {
			n, parents := 0, 0
			for _, s := range env.tr.spans {
				if s.Name == parent {
					parents++
				}
				if s.Name == child && s.Parent >= 0 && env.tr.spans[s.Parent].Name == parent {
					n++
				}
			}
			if parents == 0 {
				return 0
			}
			return float64(n) / float64(parents)
		}
		r.set("core.walk.calls_per_op", children("walk", spanCall))
		r.set("ipfs.gets_per_cold_resolve", children("cold_resolve", spanIPFSGet))
		r.set("chain.call.p50_us", quantileOf(durationsOf(r.tracers, spanCall), 0.5)*1e3)
		r.set("ipfs.get.p50_us", quantileOf(durationsOf(r.tracers, spanIPFSGet), 0.5)*1e3)

		probeEVMCall(r, bc, env.lines[0].versions[0], env.tenant)
		probeDocstore(r, "")
		raw := contracts.MustArtifact("RentalAgreementV2").ABIJSON
		for i := 0; i < r.cfg.probes; i++ {
			t0 := time.Now()
			_, err := abi.ParseJSON(raw)
			if r.check(err == nil, "probe: parsing the V2 ABI: %v", err) {
				r.rec.add("abi.parse", time.Since(t0))
			}
		}
		r.setTiming("abi.parse.p50_us", "abi.parse", 0.5, 1e3)
	}
	return nil
}

// timed runs one mix operation under a span of its own name.
func (e *auditEnv) timed(r *run, name string, fn func() error) error {
	defer e.tr.end(e.tr.begin(name))
	return r.op(name, fn)
}

func expect(err error, ok bool, format string, args ...interface{}) error {
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf(format, args...)
	}
	return nil
}

// matches compares a walked chain with the one set-up built: same
// addresses in order, consistent pointers, version numbers 1..8.
func (a *audited) matches(walked []core.VersionInfo) error {
	if len(walked) != len(a.versions) {
		return fmt.Errorf("walked %d versions, want %d", len(walked), len(a.versions))
	}
	for i, v := range walked {
		if v.Address != a.versions[i] || v.Version != i+1 {
			return fmt.Errorf("version %d of the walk is %s (v%d), want %s", i+1, v.Address, v.Version, a.versions[i])
		}
	}
	return core.VerifyChain(walked)
}
