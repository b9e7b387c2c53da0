package chain

import (
	"context"
	"errors"
	"math/big"
	"sync"
	"testing"
	"time"

	"legalchain/internal/ethtypes"
	"legalchain/internal/secp256k1"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
	"legalchain/internal/xtrace"
)

// Tests for the two-stage admission (admitStateless before bc.mu, the
// dedup re-check and nonce under it) and for the exactly-once sender
// recovery the memo on ethtypes.Transaction buys. The recovery counters
// are process-wide; nothing in this package runs tests in parallel, so
// a delta around a few calls is exact.

// recoveriesDuring returns how many Sender calls went to the curve and
// how many hit the memo while f ran.
func recoveriesDuring(f func()) (recoveries, hits uint64) {
	r0, h0 := ethtypes.SenderStats()
	f()
	r1, h1 := ethtypes.SenderStats()
	return r1 - r0, h1 - h0
}

// freshDecode returns tx as a node receives it off the wire: same hash,
// nothing memoised.
func freshDecode(t testing.TB, tx *ethtypes.Transaction) *ethtypes.Transaction {
	t.Helper()
	out, err := ethtypes.DecodeTransaction(tx.Encode())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// admitPath is one of the two entry points sharing the two-stage
// admission.
type admitPath struct {
	name  string
	admit func(*ethtypes.Transaction) (ethtypes.Hash, error)
}

func admitPaths(bc *Blockchain) []admitPath {
	return []admitPath{{"SendTransaction", bc.SendTransaction}, {"SubmitTransaction", bc.SubmitTransaction}}
}

func TestBatchRecoversEachSenderOnce(t *testing.T) {
	bc, accs := devChain(t)
	const n = 16
	var txs []*ethtypes.Transaction
	for i := 0; i < n; i++ {
		acc := accs[i%len(accs)]
		txs = append(txs, rawTx(t, bc, acc, uint64(i/len(accs)), &accs[(i+1)%len(accs)].Address, uint256.One, nil, 21000))
	}

	var block *ethtypes.Block
	recoveries, hits := recoveriesDuring(func() {
		for _, tx := range txs {
			if _, err := bc.SubmitTransaction(tx); err != nil {
				t.Fatal(err)
			}
		}
		var failed map[ethtypes.Hash]error
		block, failed = bc.MineBlock()
		if len(failed) != 0 {
			t.Fatalf("dropped: %v", failed)
		}
	})
	if len(block.Transactions) != n {
		t.Fatalf("sealed %d of %d", len(block.Transactions), n)
	}
	if recoveries != n {
		t.Fatalf("%d submissions + MineBlock recovered %d senders, want %d", n, recoveries, n)
	}
	// MineBlock takes each sender from admission: not even a memo hit
	// (which costs a signing digest).
	if hits != 0 {
		t.Fatalf("MineBlock hit the memo %d times, want 0", hits)
	}

	// Read-back (what eth_getTransactionByHash does) and historical
	// tracing find the sender on the sealed transaction.
	recoveries, _ = recoveriesDuring(func() {
		for _, tx := range txs {
			got, ok := bc.GetTransaction(tx.Hash())
			if !ok {
				t.Fatalf("transaction %s not indexed", tx.Hash())
			}
			if _, err := got.Sender(bc.ChainID()); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := bc.TraceBlockByNumber(context.Background(), block.Number(), nil); err != nil {
			t.Fatal(err)
		}
	})
	if recoveries != 0 {
		t.Fatalf("read-back and tracing recovered %d senders, want 0", recoveries)
	}
}

func TestKnownHashRefusedWithoutRecovery(t *testing.T) {
	bc, accs := devChain(t)
	sealed := signedTx(t, bc, accs[0], &accs[1].Address, uint256.One, nil, 21000)
	if _, err := bc.SendTransaction(sealed); err != nil {
		t.Fatal(err)
	}
	queued := signedTx(t, bc, accs[0], &accs[1].Address, uint256.One, nil, 21000)
	if _, err := bc.SubmitTransaction(queued); err != nil {
		t.Fatal(err)
	}

	recoveries, _ := recoveriesDuring(func() {
		for _, p := range admitPaths(bc) {
			// A sealed hash arriving again off the wire is refused against
			// the head view, before any curve work.
			hash, err := p.admit(freshDecode(t, sealed))
			if err != ErrKnownTransaction || hash != sealed.Hash() {
				t.Fatalf("%s, sealed replay: %s, %v", p.name, hash, err)
			}
			// A queued hash is known only to the writer: refused under the
			// lock, its sender answered by the memo.
			hash, err = p.admit(queued)
			if err != ErrKnownTransaction || hash != queued.Hash() {
				t.Fatalf("%s, queued replay: %s, %v", p.name, hash, err)
			}
		}
	})
	if recoveries != 0 {
		t.Fatalf("refusing known hashes recovered %d senders, want 0", recoveries)
	}
	if bc.PendingCount() != 1 || bc.BlockNumber() != 1 {
		t.Fatalf("replays changed the chain: %d pending, height %d", bc.PendingCount(), bc.BlockNumber())
	}
}

func TestRestartRecoversEachReplayedSenderOnce(t *testing.T) {
	accs := wallet.DevAccounts("admit restart", 3)
	dir := t.TempDir()
	const k = 6

	bc := openPersist(t, dir, accs, 1000) // no periodic snapshot: full replay
	for i := 0; i < k; i++ {
		tx := signedTx(t, bc, accs[i%3], &accs[(i+1)%3].Address, uint256.NewUint64(5), nil, 21000)
		if _, err := bc.SendTransaction(tx); err != nil {
			t.Fatal(err)
		}
	}
	want := fingerprint(bc)
	// Simulated SIGKILL: no Close, so no final snapshot.

	var bc2 *Blockchain
	hashes := ethtypes.TxHashes()
	recoveries, hits := recoveriesDuring(func() { bc2 = openPersist(t, dir, accs, 1000) })
	hashes = ethtypes.TxHashes() - hashes
	defer bc2.Close()
	mustMatchFull(t, want, fingerprint(bc2))
	if rep := bc2.RecoveryReport(); rep.BlocksReplayed != k || rep.Dropped() {
		t.Fatalf("recovery: %+v", rep)
	}
	if recoveries != k {
		t.Fatalf("replaying %d one-transaction blocks recovered %d senders, want %d", k, recoveries, k)
	}
	// Replay takes each sender from the recovery pass and each hash from
	// the journaled receipt the structural check compared it with: no
	// memo hit (a signing digest each) and one hash per transaction.
	if hits != 0 {
		t.Fatalf("replay hit the sender memo %d times, want 0", hits)
	}
	if hashes != k {
		t.Fatalf("recovering %d transactions computed %d transaction hashes, want %d", k, hashes, k)
	}
}

// TestStatelessRefusalsNeverTakeTheLock holds bc.mu and checks that
// everything admitStateless can refuse is refused regardless, with the
// error text admission has always used.
func TestStatelessRefusalsNeverTakeTheLock(t *testing.T) {
	bc, accs := devChain(t)
	sealed := signedTx(t, bc, accs[0], &accs[1].Address, uint256.One, nil, 21000)
	if _, err := bc.SendTransaction(sealed); err != nil {
		t.Fatal(err)
	}
	otherChain := &ethtypes.Transaction{Nonce: 1, GasPrice: ethtypes.Gwei(1), Gas: 21000, To: &accs[1].Address}
	if err := otherChain.Sign(accs[0].Key, 1); err != nil {
		t.Fatal(err)
	}
	tooBig := rawTx(t, bc, accs[0], 1, &accs[1].Address, uint256.One, nil, bc.GasLimit()+1)
	// A valid signature's malleable twin: s' = N − s, other recovery id.
	highS := rawTx(t, bc, accs[0], 1, &accs[1].Address, uint256.One, nil, 21000)
	highS.S = new(big.Int).Sub(secp256k1.N, highS.S)
	highS.V = new(big.Int).SetUint64(2*(35+2*bc.ChainID()) + 1 - highS.V.Uint64())
	// The same signature with 2⁶⁴ added to V: the low 64 bits still name
	// the chain, the hash is new.
	wideV := rawTx(t, bc, accs[0], 1, &accs[1].Address, uint256.One, nil, 21000)
	wideV.V.Add(wideV.V, new(big.Int).Lsh(big.NewInt(1), 64))

	cases := []struct {
		name string
		tx   *ethtypes.Transaction
		want string
	}{
		{"invalid signature", otherChain, "chain: invalid signature: ethtypes: wrong chain id in v=" + otherChain.V.String() + " (want chain 1337)"},
		{"high-S twin", highS, "chain: invalid signature: secp256k1: signature s not normalized (malleable)"},
		{"wide-V twin", wideV, "chain: invalid signature: ethtypes: wrong chain id in v=" + wideV.V.String() + " (want chain 1337)"},
		{"over the block gas limit", tooBig, "chain: transaction exceeds block gas limit"},
		{"sealed hash", freshDecode(t, sealed), "chain: already known transaction"},
	}

	bc.mu.Lock()
	defer bc.mu.Unlock()
	for _, c := range cases {
		for _, p := range admitPaths(bc) {
			done := make(chan error, 1)
			go func() {
				_, err := p.admit(c.tx)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || err.Error() != c.want {
					t.Errorf("%s, %s: error %q, want %q", p.name, c.name, err, c.want)
				}
			case <-time.After(10 * time.Second):
				// The goroutine is parked on bc.mu; the deferred Unlock
				// releases it.
				t.Fatalf("%s, %s: waited for the writer lock instead of refusing", p.name, c.name)
			}
		}
	}
}

// TestRacingSendsOfOneTransaction sends the same signed transaction
// from two goroutines: both pass the stateless stage, the re-check
// under the lock lets exactly one through.
func TestRacingSendsOfOneTransaction(t *testing.T) {
	t.Run("inline seal", func(t *testing.T) {
		accs := wallet.DevAccounts("admit race", 2)
		g := DefaultGenesis()
		g.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(100))
		bc := New(g)
		defer bc.Close()

		const rounds = 8
		for round := 0; round < rounds; round++ {
			tx := signedTx(t, bc, accs[0], &accs[1].Address, uint256.One, nil, 21000)
			// Each goroutine gets its own decode, as two RPC requests would.
			copies := []*ethtypes.Transaction{freshDecode(t, tx), freshDecode(t, tx)}
			errs := make([]error, len(copies))
			var wg sync.WaitGroup
			for i := range copies {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, errs[i] = bc.SendTransaction(copies[i])
				}()
			}
			wg.Wait()
			var ok, known int
			for _, err := range errs {
				switch {
				case err == nil:
					ok++
				case errors.Is(err, ErrKnownTransaction):
					known++
				default:
					t.Fatalf("round %d: unexpected error %v", round, err)
				}
			}
			if ok != 1 || known != 1 {
				t.Fatalf("round %d: %d admitted, %d refused as known", round, ok, known)
			}
			if got := bc.BlockNumber(); got != uint64(round+1) {
				t.Fatalf("round %d: height %d", round, got)
			}
		}
		if n := bc.GetNonce(accs[0].Address); n != rounds {
			t.Fatalf("sender nonce %d, want %d", n, rounds)
		}
	})
}

// TestSendTransactionSpansSplitAdmission checks the trace separates
// curve time (admit) from queueing for the writer (lockWait).
func TestSendTransactionSpansSplitAdmission(t *testing.T) {
	bc, accs := devChain(t)
	xtrace.SetEnabled(true)
	xtrace.Reset()
	t.Cleanup(func() { xtrace.SetEnabled(false); xtrace.Reset() })

	ctx, root := xtrace.StartRoot(context.Background(), "test", "send", "")
	tx := signedTx(t, bc, accs[0], &accs[1].Address, uint256.One, nil, 21000)
	if _, err := bc.SendTransactionCtx(ctx, tx); err != nil {
		t.Fatal(err)
	}
	root.End()

	td := xtrace.Lookup(xtrace.TraceIDFrom(ctx))
	if td == nil {
		t.Fatal("trace not collected")
	}
	var send uint64
	for _, sp := range td.Spans {
		if sp.Tier == "chain" && sp.Name == "sendTransaction" {
			send = sp.ID
		}
	}
	children := map[string]bool{}
	for _, sp := range td.Spans {
		if sp.Parent == send && sp.Tier == "chain" {
			children[sp.Name] = true
		}
	}
	for _, name := range []string{"admit", "lockWait", "stateRoot"} {
		if !children[name] {
			t.Errorf("sendTransaction has no %q child span (children: %v)", name, children)
		}
	}
}
