package main

import (
	"time"

	"legalchain/internal/chain"
	"legalchain/internal/contracts"
	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
	"legalchain/internal/upgrade"
	"legalchain/internal/wallet"
)

// Probes run after the timed part of a traced run: they replay inputs
// captured from the run, single-threaded, into one layer's exported
// functions and report the median. They price a layer in isolation; the
// spans say how often the run crossed it.

// probeSigning re-signs and re-recovers the run's own transactions:
// Keystore.SignTx is what a client pays per transaction, Transaction.
// Sender what the node pays at admission (and again when mining a batch).
func probeSigning(r *run, bc *chain.Blockchain, ks *wallet.Keystore, raws [][]byte) {
	chainID := bc.ChainID()
	for i, raw := range raws {
		if i >= r.cfg.probes {
			break
		}
		tx, err := ethtypes.DecodeTransaction(raw)
		if !r.check(err == nil, "probe: decoding captured transaction: %v", err) {
			continue
		}
		t0 := time.Now()
		sender, err := tx.Sender(chainID)
		d := time.Since(t0)
		if !r.check(err == nil, "probe: recovering sender: %v", err) {
			continue
		}
		r.rec.add("secp256k1.recover", d)
		if !ks.Has(sender) {
			continue
		}
		t0 = time.Now()
		err = ks.SignTx(sender, tx, chainID)
		d = time.Since(t0)
		if r.check(err == nil, "probe: signing: %v", err) {
			r.rec.add("wallet.sign_tx", d)
		}
	}
	r.setTiming("secp256k1.recover.p50_us", "secp256k1.recover", 0.5, 1e3)
	r.setTiming("wallet.sign_tx.p50_us", "wallet.sign_tx", 0.5, 1e3)
}

// probeVerifyUpgrade prices the upgrade guard alone: ABI and layout
// checks plus the rental properties executed on a fork of the head,
// against a freshly confirmed agreement, without deploying or linking
// anything.
func probeVerifyUpgrade(r *run, c *lcClient) {
	terms := rentalTerms(c.rng)
	dep, err := c.svc.DeployRental(c.landlord, terms)
	if err == nil {
		err = c.svc.Confirm(c.tenant, dep.Contract.Address)
	}
	if !r.check(err == nil, "probe: deploying an agreement to verify against: %v", err) {
		return
	}
	art := contracts.MustArtifact("RentalAgreementV2")
	amended := amendedTerms(terms, c.rng)
	// The assertions RentalService.Modify declares for every candidate.
	props := []upgrade.Property{
		{Name: "rent-matches-terms", Method: "rent", Want: amended.Rent.String()},
		{Name: "deposit-matches-terms", Method: "deposit", Want: amended.Deposit.String()},
		{Name: "starts-unlinked", Method: "getNext", Want: ethtypes.Address{}.Hex()},
	}
	for i := 0; i < (r.cfg.probes+3)/4; i++ {
		t0 := time.Now()
		rep, err := c.mgr.VerifyUpgrade(c.landlord, dep.Contract.Address, art, props,
			amended.Rent, amended.Deposit, amended.Months, amended.House,
			amended.MaintenanceFee, amended.Discount, amended.Fine)
		d := time.Since(t0)
		if r.check(err == nil && rep.OK(), "probe: upgrade guard refused the standard candidate: %v", err) {
			r.rec.add("upgrade.verify", d)
		}
	}
	r.setTiming("upgrade.verify.p50_ms", "upgrade.verify", 0.5, 1)
}

// probeEVMCall prices one read-only getter call on the head view, below
// every client library and serialisation.
func probeEVMCall(r *run, bc *chain.Blockchain, rental, from ethtypes.Address) {
	data, err := contracts.MustArtifact("BaseRental").ABI.Pack("rent")
	if !r.check(err == nil, "probe: packing rent(): %v", err) {
		return
	}
	for i := 0; i < 10*r.cfg.probes; i++ {
		t0 := time.Now()
		res := bc.Call(from, &rental, data, uint256.Zero, 0)
		d := time.Since(t0)
		if r.check(res.Err == nil && len(res.Return) == 32, "probe: rent() call failed: %v", res.Err) {
			r.rec.add("evm.call", d)
		}
	}
	r.setTiming("evm.call.p50_us", "evm.call", 0.5, 1e3)
}
