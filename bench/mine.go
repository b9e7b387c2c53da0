package main

import (
	"fmt"
	"math/rand"
	"time"

	"legalchain/internal/chain"
	"legalchain/internal/contracts"
	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
)

// mine_batch: one driver goroutine fills multi-transaction blocks on an
// in-memory node with default options. Every block holds one
// transaction from each of 16 senders: 8 plain transfers to fresh
// recipients, 6 DataStorage.setValue calls (each sender owns its
// contract and writes a fresh key: four cold SSTOREs), and 2 transfers
// to one shared recipient, which conflict in the optimistic executor.
// Signing happens between blocks and is not timed.

const (
	mineSenders   = 16
	mineTransfers = 8
	mineSetValues = 6 // senders mineTransfers .. mineTransfers+mineSetValues-1
	mineWarmup    = 2 // blocks, untimed, part of set-up
	serialBlocks  = 20
)

type mineEnv struct {
	bc       *chain.Blockchain
	in       *inputs
	rng      *rand.Rand
	nonce    [mineSenders]uint64
	storage  [mineSetValues]ethtypes.Address
	shared   ethtypes.Address
	sharedIn uint256.Int // what the shared recipient must hold
	prelude  []*ethtypes.Transaction
	blockNo  int
	// lastKey/lastVal are the newest write of every setValue sender, for
	// the oracle.
	lastKey, lastVal [mineSetValues]string
	fresh            []ethtypes.Address // recipients of the newest block
	freshVal         []uint256.Int
}

func (e *mineEnv) sign(sender int, to *ethtypes.Address, value uint256.Int, data []byte, gas uint64) (*ethtypes.Transaction, error) {
	tx := &ethtypes.Transaction{
		Nonce: e.nonce[sender], GasPrice: ethtypes.Gwei(1), Gas: gas,
		To: to, Value: value, Data: data,
	}
	if err := e.in.ks.SignTx(e.in.accounts[sender].Address, tx, e.bc.ChainID()); err != nil {
		return nil, err
	}
	e.nonce[sender]++
	return tx, nil
}

func (e *mineEnv) close() { e.bc.Close() }

func setupMine(r *run) (*mineEnv, error) {
	in := newInputs(r.cfg, mineSenders)
	e := &mineEnv{bc: chain.New(in.genesis), in: in, rng: rngFor(r.cfg, 0)}
	e.rng.Read(e.shared[:])
	art := contracts.MustArtifact("DataStorage")
	for i := 0; i < mineSetValues; i++ {
		sender := mineTransfers + i
		tx, err := e.sign(sender, nil, uint256.Zero, art.Bytecode, 4_000_000)
		if err != nil {
			return nil, err
		}
		hash, err := e.bc.SendTransaction(tx)
		if err != nil {
			return nil, fmt.Errorf("deploying DataStorage: %w", err)
		}
		rcpt, ok := e.bc.GetReceipt(hash)
		if !ok || !rcpt.Succeeded() || rcpt.ContractAddress == nil {
			return nil, fmt.Errorf("DataStorage deployment failed")
		}
		e.storage[i] = *rcpt.ContractAddress
		e.prelude = append(e.prelude, tx)
	}
	for i := 0; i < mineWarmup; i++ {
		txs, _, err := e.nextBlock()
		if err != nil {
			return nil, err
		}
		if err := e.mine(nil, txs); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// nextBlock generates and signs the next block's 16 transactions and
// returns them with the time signing took.
func (e *mineEnv) nextBlock() ([]*ethtypes.Transaction, time.Duration, error) {
	type unsigned struct {
		sender int
		to     ethtypes.Address
		value  uint256.Int
		data   []byte
		gas    uint64
	}
	art := contracts.MustArtifact("DataStorage")
	var batch []unsigned
	e.fresh, e.freshVal = e.fresh[:0], e.freshVal[:0]
	for s := 0; s < mineSenders; s++ {
		amount := uint256.NewUint64(1_000_000_000_000 + uint64(e.rng.Intn(1_000_000)))
		switch {
		case s < mineTransfers:
			var to ethtypes.Address
			e.rng.Read(to[:])
			e.fresh, e.freshVal = append(e.fresh, to), append(e.freshVal, amount)
			batch = append(batch, unsigned{s, to, amount, nil, 21_000})
		case s < mineTransfers+mineSetValues:
			i := s - mineTransfers
			key := fmt.Sprintf("clause-%06d", e.blockNo)
			val := fmt.Sprintf("%032x", e.rng.Uint64())
			data, err := art.ABI.Pack("setValue", e.in.accounts[s].Address, key, val)
			if err != nil {
				return nil, 0, err
			}
			e.lastKey[i], e.lastVal[i] = key, val
			batch = append(batch, unsigned{s, e.storage[i], uint256.Zero, data, 400_000})
		default:
			e.sharedIn = e.sharedIn.Add(amount)
			batch = append(batch, unsigned{s, e.shared, amount, nil, 21_000})
		}
	}
	e.blockNo++
	txs := make([]*ethtypes.Transaction, 0, len(batch))
	t0 := time.Now()
	for _, u := range batch {
		to := u.to
		tx, err := e.sign(u.sender, &to, u.value, u.data, u.gas)
		if err != nil {
			return nil, 0, err
		}
		txs = append(txs, tx)
	}
	return txs, time.Since(t0), nil
}

// mine submits txs and seals them into one block. With r nil (warm-up)
// nothing is timed or counted.
func (e *mineEnv) mine(r *run, txs []*ethtypes.Transaction) error {
	t0 := time.Now()
	for _, tx := range txs {
		t1 := time.Now()
		if _, err := e.bc.SubmitTransaction(tx); err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		if r != nil {
			r.rec.add("chain.submit", time.Since(t1))
		}
	}
	t2 := time.Now()
	block, dropped := e.bc.MineBlock()
	done := time.Now()
	if len(block.Transactions) != len(txs) || len(dropped) != 0 {
		return fmt.Errorf("block %d sealed %d of %d transactions, dropped %d", block.Number(), len(block.Transactions), len(txs), len(dropped))
	}
	if r != nil {
		r.rec.add("chain.mine", done.Sub(t2))
		r.rec.add("block", done.Sub(t0))
	}
	return nil
}

func runMine(r *run) error {
	blocks := scaled(blocksPerSecond, r.cfg.seconds)
	r.note("blocks", blocks)
	r.note("senders", mineSenders)
	r.note("warmup_blocks", mineWarmup)

	env, err := setUp(r, func(int) (*mineEnv, error) { return setupMine(r) })
	if err != nil {
		return err
	}
	bc := env.bc
	defer env.close()

	supply := bc.TotalSupply()
	headBefore := bc.BlockNumber()
	before := scrape()
	var signing time.Duration
	var first [][]*ethtypes.Transaction // the first blocks, for the serial replay
	pace := r.host.pacer()
	for b := 0; b < blocks; b++ {
		pace.tick()
		txs, signed, err := env.nextBlock()
		if err != nil {
			return err
		}
		signing += signed
		if len(first) < serialBlocks {
			first = append(first, txs)
		}
		err = env.mine(r, txs)
		if !r.check(err == nil, "%v", err) {
			return err
		}
	}
	after := scrape()
	headAfter := bc.BlockNumber()
	// Set-up as a user of this workload pays it: building the node plus
	// all the signing the timed regions leave out.
	r.set("setup_s", r.values["setup_s"]+signing.Seconds())

	perSecond := float64(blocks*mineSenders) / (r.rec.sum("block") / 1e3)
	tally := tallyBlocks(bc, headBefore, headAfter, r.cfg.probes)
	r.set("txs_per_s", perSecond)
	r.set("ops_per_s", perSecond)
	r.setTiming("op_p50_ms", "chain.submit", 0.5, 1)
	r.set("chain.submit.us_per_tx", r.rec.sum("chain.submit")/float64(r.rec.count("chain.submit"))*1e3)
	r.set("chain.mine.ms_per_block", r.rec.sum("chain.mine")/float64(blocks))
	r.set("chain.exec_conflicts_per_block", (after["legalchain_chain_exec_conflicts_total"]-before["legalchain_chain_exec_conflicts_total"])/float64(blocks))
	r.set("chain.reexec_per_block", (after["legalchain_chain_exec_reexec_total"]-before["legalchain_chain_exec_reexec_total"])/float64(blocks))

	// Oracle.
	r.check(tally.blocks == blocks && tally.txs == blocks*mineSenders && tally.maxBlock == mineSenders,
		"sealed %d blocks holding %d transactions, want %d and %d", tally.blocks, tally.txs, blocks, blocks*mineSenders)
	r.check(tally.failed == 0, "%d receipts carry a failure status", tally.failed)
	r.check(bc.TotalSupply() == supply, "total ether supply changed")
	r.check(bc.GetBalance(env.shared) == env.sharedIn, "shared recipient holds %s, want %s", bc.GetBalance(env.shared), env.sharedIn)
	for i, to := range env.fresh {
		r.check(bc.GetBalance(to) == env.freshVal[i], "fresh recipient %s holds %s, want %s", to, bc.GetBalance(to), env.freshVal[i])
	}
	art := contracts.MustArtifact("DataStorage")
	for i := range env.storage {
		owner := env.in.accounts[mineTransfers+i].Address
		data, _ := art.ABI.Pack("getValue", owner, env.lastKey[i])
		res := bc.Call(owner, &env.storage[i], data, uint256.Zero, 0)
		out, err := art.ABI.Unpack("getValue", res.Return)
		ok := res.Err == nil && err == nil && len(out) == 1 && out[0] == env.lastVal[i]
		r.check(ok, "DataStorage %d: %s reads %v, want %s", i, env.lastKey[i], out, env.lastVal[i])
	}

	if r.cfg.trace {
		probeSigning(r, bc, env.in.ks, tally.raw)
		if err := probeSerialMining(r, env, first); err != nil {
			return err
		}
	}
	return nil
}

// probeSerialMining replays the prelude, the warm-up and the first timed
// blocks on a second node opened with one executor worker, and compares
// MineBlock alone on the same blocks: above 1, the parallel executor
// earns its keep on this host.
func probeSerialMining(r *run, env *mineEnv, first [][]*ethtypes.Transaction) error {
	serial := chain.New(env.in.genesis, chain.WithExecWorkers(1))
	defer serial.Close()
	// Fresh decodes, so nothing remembered on the transaction objects by
	// the first node carries over.
	fresh := func(tx *ethtypes.Transaction) (*ethtypes.Transaction, error) {
		return ethtypes.DecodeTransaction(tx.Encode())
	}
	for _, tx := range env.prelude {
		tx, err := fresh(tx)
		if err != nil {
			return err
		}
		if _, err := serial.SendTransaction(tx); err != nil {
			return fmt.Errorf("serial replay prelude: %w", err)
		}
	}
	// The warm-up blocks of the main node, regenerated from the same seed.
	replay := &mineEnv{bc: serial, in: env.in, rng: rngFor(r.cfg, 0), storage: env.storage}
	replay.rng.Read(replay.shared[:]) // the generator's first draw, as in setupMine
	for i := range replay.nonce {
		if i >= mineTransfers && i < mineTransfers+mineSetValues {
			replay.nonce[i] = 1
		}
	}
	for i := 0; i < mineWarmup; i++ {
		txs, _, err := replay.nextBlock()
		if err != nil {
			return err
		}
		if err := replay.mine(nil, txs); err != nil {
			return fmt.Errorf("serial replay warm-up: %w", err)
		}
	}
	var serialMs float64
	for _, txs := range first {
		for _, tx := range txs {
			tx, err := fresh(tx)
			if err != nil {
				return err
			}
			if _, err := serial.SubmitTransaction(tx); err != nil {
				return fmt.Errorf("serial replay submit: %w", err)
			}
		}
		t0 := time.Now()
		block, dropped := serial.MineBlock()
		serialMs += float64(time.Since(t0).Nanoseconds()) / 1e6
		if !r.check(len(block.Transactions) == mineSenders && len(dropped) == 0, "serial replay sealed %d transactions", len(block.Transactions)) {
			return nil
		}
	}
	n := float64(len(first))
	r.set("chain.mine_serial.ms_per_block", serialMs/n)
	var parallelMs float64
	mined := r.rec.inOrder("chain.mine")
	for i := 0; i < len(first) && i < len(mined); i++ {
		parallelMs += mined[i]
	}
	if parallelMs > 0 {
		r.set("chain.exec_speedup.ratio", serialMs/parallelMs)
	}
	return nil
}
