package chain

import (
	"sync"
	"testing"
	"time"

	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
)

// hubRig builds a funded in-memory chain for subscription tests.
func hubRig(t testing.TB, nAccounts int) (*Blockchain, []wallet.Account) {
	t.Helper()
	accs := wallet.DevAccounts("hub test", nAccounts)
	g := DefaultGenesis()
	g.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(1000))
	bc := New(g)
	t.Cleanup(func() { bc.Close() })
	return bc, accs
}

// drainAll waits for the subscription to wake and drains it once: an
// event pushed after that Drain wakes the subscription again.
func drainAll(t *testing.T, sub *Subscription, timeout time.Duration) ([]Event, uint64) {
	t.Helper()
	select {
	case <-sub.Wait():
		events, gap, _ := sub.Drain()
		return events, gap
	case <-time.After(timeout):
		t.Fatal("subscription never woke")
	}
	return nil, 0
}

// TestHubHeadsInOrder: every seal reaches the subscriber, in order,
// each event carrying a view at least as new as the sealed block.
func TestHubHeadsInOrder(t *testing.T) {
	bc, _ := hubRig(t, 1)
	sub := bc.SubscribeHeads(0)
	defer sub.Close()

	const blocks = 20
	for i := 0; i < blocks; i++ {
		bc.MineBlock()
	}

	var got []Event
	for len(got) < blocks {
		evs, gap := drainAll(t, sub, 5*time.Second)
		if gap != 0 {
			t.Fatalf("gap %d with a keeping-up subscriber", gap)
		}
		got = append(got, evs...)
	}
	last := uint64(0)
	for i, ev := range got {
		if ev.View == nil {
			t.Fatalf("event %d has no view", i)
		}
		n := ev.View.BlockNumber()
		if n < last {
			t.Fatalf("view went backwards: %d after %d", n, last)
		}
		last = n
	}
	if last != blocks {
		t.Fatalf("newest view at block %d, want %d", last, blocks)
	}
}

// TestHubSlowSubscriberGap: a subscriber with a tiny ring that never
// drains loses the oldest events and learns the exact count, while the
// cumulative view in the newest event still recovers every block.
func TestHubSlowSubscriberGap(t *testing.T) {
	bc, _ := hubRig(t, 1)
	sub := bc.SubscribeHeads(2)
	defer sub.Close()

	const blocks = 10
	for i := 0; i < blocks; i++ {
		bc.MineBlock()
	}
	events, gap, alive := sub.Drain()
	if !alive {
		t.Fatal("subscription died")
	}
	if len(events) != 2 {
		t.Fatalf("ring of 2 held %d events", len(events))
	}
	if gap != blocks-2 {
		t.Fatalf("gap = %d, want %d", gap, blocks-2)
	}
	// Recovery: the newest view serves every missed block.
	v := events[len(events)-1].View
	if v.BlockNumber() != blocks {
		t.Fatalf("newest view at %d", v.BlockNumber())
	}
	for n := uint64(1); n <= blocks; n++ {
		if _, ok := v.BlockByNumber(n); !ok {
			t.Fatalf("block %d not recoverable from the view", n)
		}
	}
}

// TestHubFrozenSubscriberDoesNotBlockSealing is the backpressure
// guarantee: one live consumer and one frozen one (never drains, ring
// of 1), sealing at full speed. The seal loop must finish promptly and
// the live consumer must still observe every block in order.
func TestHubFrozenSubscriberDoesNotBlockSealing(t *testing.T) {
	bc, _ := hubRig(t, 1)
	live := bc.SubscribeHeads(0)
	defer live.Close()
	frozen := bc.SubscribeHeads(1)
	defer frozen.Close()

	const blocks = 50
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < blocks; i++ {
			bc.MineBlock()
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("sealing stalled behind a frozen subscriber")
	}

	// The live subscriber can reconstruct every head in order.
	var newest *HeadView
	seen := 0
	for seen < blocks {
		evs, _ := drainAll(t, live, 5*time.Second)
		for _, ev := range evs {
			if ev.View != nil {
				newest = ev.View
				seen++
			}
		}
	}
	if newest.BlockNumber() != blocks {
		t.Fatalf("live subscriber's newest view at %d, want %d", newest.BlockNumber(), blocks)
	}
	for n := uint64(1); n <= blocks; n++ {
		if _, ok := newest.BlockByNumber(n); !ok {
			t.Fatalf("block %d missing from final view", n)
		}
	}

	// The frozen ring dropped all but one event and knows it.
	frozen.mu.Lock()
	dropped := frozen.dropped
	frozen.mu.Unlock()
	if dropped == 0 {
		t.Fatal("frozen subscriber reported no drops")
	}
}

// TestHubUnsubscribeDuringSeal races Close against concurrent seals:
// no deadlock, no panic, and the hub forgets the subscription.
func TestHubUnsubscribeDuringSeal(t *testing.T) {
	bc, _ := hubRig(t, 1)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				bc.MineBlock()
			}
		}
	}()

	for i := 0; i < 200; i++ {
		sub := bc.SubscribeHeads(4)
		if i%2 == 0 {
			// Half the subscribers drain once mid-flight.
			select {
			case <-sub.Wait():
				sub.Drain()
			default:
			}
		}
		sub.Close()
		// Close is idempotent, also under concurrency.
		go sub.Close()
	}
	close(stop)
	wg.Wait()

	deadline := time.Now().Add(2 * time.Second)
	for bc.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d subscriptions leaked", bc.Subscribers())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHubPendingTxStream: admitted transactions reach pending-tx
// subscribers by hash, separate from the heads stream.
func TestHubPendingTxStream(t *testing.T) {
	bc, accs := hubRig(t, 2)
	pend := bc.SubscribePendingTxs(0)
	defer pend.Close()
	heads := bc.SubscribeHeads(0)
	defer heads.Close()

	tx := rawTx(t, bc, accs[0], 0, &accs[1].Address, uint256.NewUint64(1), nil, 21000)
	hash, err := bc.SubmitTransaction(tx)
	if err != nil {
		t.Fatal(err)
	}
	evs, gap := drainAll(t, pend, 5*time.Second)
	if gap != 0 || len(evs) != 1 {
		t.Fatalf("pending events = %d, gap = %d", len(evs), gap)
	}
	if evs[0].TxHash != hash || evs[0].View != nil {
		t.Fatalf("pending event = %+v, want hash %s", evs[0], hash.Hex())
	}

	// Heads stream saw nothing until the seal.
	if _, _, alive := heads.Drain(); !alive {
		t.Fatal("heads sub died")
	}
	bc.MineBlock()
	hevs, _ := drainAll(t, heads, 5*time.Second)
	if len(hevs) == 0 || hevs[0].View == nil {
		t.Fatalf("heads events = %+v", hevs)
	}
}

// TestHubCloseWakesSubscribers: closing the chain ends every
// subscription with alive == false (the node-shutdown signal WS and
// SSE handlers translate into close/error frames).
func TestHubCloseWakesSubscribers(t *testing.T) {
	bc, _ := hubRig(t, 1)
	sub := bc.SubscribeHeads(0)
	bc.MineBlock()

	bc.Close()
	select {
	case <-sub.Wait():
	case <-time.After(5 * time.Second):
		t.Fatal("close did not wake the subscriber")
	}
	// Drain until the subscription reports dead.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, _, alive := sub.Drain()
		if !alive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("subscription still alive after chain close")
		}
	}
	// Subscribing after close yields an immediately dead subscription.
	late := bc.SubscribeHeads(0)
	if _, _, alive := late.Drain(); alive {
		t.Fatal("subscription on a closed chain is alive")
	}
}

// TestHubDeliversBeforeReturn: the sealer fans each event out itself,
// so once SendTransaction, SubmitTransaction or MineBlock returns, a
// Drain with no wait already holds the event of every view it sealed
// and of every transaction it admitted.
func TestHubDeliversBeforeReturn(t *testing.T) {
	bc, accs := hubRig(t, 2)
	heads := bc.SubscribeHeads(0)
	defer heads.Close()
	pend := bc.SubscribePendingTxs(0)
	defer pend.Close()

	hash, err := bc.SendTransaction(rawTx(t, bc, accs[0], 0, &accs[1].Address, uint256.NewUint64(1), nil, 21000))
	if err != nil {
		t.Fatal(err)
	}
	if evs, gap, _ := pend.Drain(); gap != 0 || len(evs) != 1 || evs[0].TxHash != hash {
		t.Fatalf("after SendTransaction: pending events %+v, gap %d; want the one hash %s", evs, gap, hash.Hex())
	}
	if evs, gap, _ := heads.Drain(); gap != 0 || len(evs) != 1 || evs[0].View != bc.View() || evs[0].View.BlockNumber() != 1 {
		t.Fatalf("after SendTransaction: %d head events, gap %d; want the one view at block 1", len(evs), gap)
	}

	hash, err = bc.SubmitTransaction(rawTx(t, bc, accs[0], 1, &accs[1].Address, uint256.NewUint64(1), nil, 21000))
	if err != nil {
		t.Fatal(err)
	}
	if evs, _, _ := pend.Drain(); len(evs) != 1 || evs[0].TxHash != hash {
		t.Fatalf("after SubmitTransaction: pending events %+v, want hash %s", evs, hash.Hex())
	}
	if evs, _, _ := heads.Drain(); len(evs) != 0 {
		t.Fatalf("after SubmitTransaction: %d head events before any seal", len(evs))
	}
	if _, failed := bc.MineBlock(); len(failed) != 0 {
		t.Fatalf("MineBlock dropped %v", failed)
	}
	if evs, gap, _ := heads.Drain(); gap != 0 || len(evs) != 1 || evs[0].View != bc.View() || evs[0].View.BlockNumber() != 2 {
		t.Fatalf("after MineBlock: %d head events, gap %d; want the one view at block 2", len(evs), gap)
	}
}

// TestNewestCoalescesBurst: a burst of seals drained in one wake comes
// out as one view, the newest; the wake its later pushes left behind
// brings nothing.
func TestNewestCoalescesBurst(t *testing.T) {
	bc, _ := hubRig(t, 1)
	sub := bc.SubscribeHeads(0)
	defer sub.Close()
	for i := 0; i < 5; i++ {
		bc.MineBlock()
	}
	sub.mu.Lock()
	buffered := sub.n
	sub.mu.Unlock()
	if buffered != 5 {
		t.Fatalf("%d events buffered after 5 seals, want 5", buffered)
	}
	<-sub.Wait()
	if v, alive := sub.Newest(); !alive || v == nil || v.BlockNumber() != 5 {
		t.Fatalf("Newest after a burst = %v, alive %v; want the view at block 5", v, alive)
	}
	select {
	case <-sub.Wait():
		if v, alive := sub.Newest(); v != nil || !alive {
			t.Fatalf("an empty wake returned %v, alive %v", v, alive)
		}
	default:
	}
}

// TestNewestClosed: a closed subscription wakes and reports alive false.
func TestNewestClosed(t *testing.T) {
	bc, _ := hubRig(t, 1)
	sub := bc.SubscribeHeads(0)
	sub.Close()
	<-sub.Wait()
	if v, alive := sub.Newest(); v != nil || alive {
		t.Fatalf("Newest on a closed subscription = %v, alive %v", v, alive)
	}
}

// TestNewestFollowsRacingSealer: one consumer calling Newest once per
// wake, against a sealer that outruns its small ring, ends at the
// chain head.
func TestNewestFollowsRacingSealer(t *testing.T) {
	bc, _ := hubRig(t, 1)
	sub := bc.SubscribeHeads(4)
	defer sub.Close()
	const blocks = 200
	go func() {
		for i := 0; i < blocks; i++ {
			bc.MineBlock()
		}
	}()
	deadline := time.After(30 * time.Second)
	var head uint64
	for head < blocks {
		select {
		case <-sub.Wait():
			v, alive := sub.Newest()
			if !alive {
				t.Fatal("subscription died")
			}
			if v != nil {
				if v.BlockNumber() < head {
					t.Fatalf("view went back from block %d to %d", head, v.BlockNumber())
				}
				head = v.BlockNumber()
			}
		case <-deadline:
			t.Fatalf("consumer stuck at block %d, chain at %d", head, bc.BlockNumber())
		}
	}
}
