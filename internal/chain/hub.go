package chain

import (
	"context"
	"sync"

	"legalchain/internal/ethtypes"
	"legalchain/internal/xtrace"
)

// Subscription hub: the push tier's fan-out point. Every seal already
// publishes an immutable HeadView through an atomic pointer (view.go);
// the hub turns that single publication into per-subscriber streams
// without ever putting subscriber count on the seal path.
//
// The topology is sealer → hub queue → pump goroutine → per-subscriber
// bounded rings:
//
//   - The sealer (holding bc.mu) calls publishHead/publishPendingTx,
//     which appends one event to the hub's own bounded queue under a
//     short mutex and wakes the pump with a non-blocking send. That is
//     the whole seal-path cost: O(1), independent of subscriber count,
//     and it never blocks — a million dashboards cost a seal exactly
//     what zero dashboards cost.
//   - The pump goroutine (started lazily on first subscribe) drains the
//     queue and appends each event to every matching subscriber's ring.
//     A ring append is a few pointer writes under the subscriber's own
//     mutex; consumers hold that mutex only while copying events out,
//     so a frozen consumer — a WS client that stopped reading, an SSE
//     peer with a full TCP window — cannot stall the pump either.
//   - When a subscriber's ring is full the oldest event is dropped and
//     counted; the consumer learns the count as a gap notice on its
//     next Drain and recovers by walking the (cumulative) latest view.
//
// Because each HeadEvent carries the full immutable view, a subscriber
// that fell behind has everything it needs to catch up in order:
// view.BlockByNumber serves the heads it missed and view.FilterLogs the
// logs, so drop-with-gap-notice loses no data for keeping-up clients
// and degrades to "resync from the view" for slow ones.

// defaultSubBuffer is the ring capacity used when Subscribe is called
// with buf <= 0.
const defaultSubBuffer = 64

// hubQueueMax bounds the hub's own event queue between pump runs. The
// pump's per-event work is tiny (ring appends), so the queue only grows
// if the host is badly oversubscribed; overflow drops the oldest events
// and surfaces as a gap on every subscriber of the dropped events' kind.
const hubQueueMax = 4096

// SubKind selects what a subscription observes.
type SubKind int

const (
	// SubHeads delivers one event per published head view (seals,
	// recoveries, time adjustments).
	SubHeads SubKind = iota
	// SubPendingTxs delivers the hash of every transaction admitted to
	// the pool or the instant-seal path.
	SubPendingTxs
)

// Event is one hub notification.
type Event struct {
	// View is the published head view (SubHeads). It is immutable and
	// cumulative: a consumer that missed earlier events can read the
	// skipped blocks and logs back out of the newest view.
	View *HeadView
	// TxHash is the admitted transaction (SubPendingTxs).
	TxHash ethtypes.Hash
}

// kind is the subscription kind that receives ev.
func (ev Event) kind() SubKind {
	if ev.View == nil {
		return SubPendingTxs
	}
	return SubHeads
}

// Subscription is one subscriber's bounded event ring. Obtain one from
// Blockchain.SubscribeHeads or SubscribePendingTxs and always Close it;
// an abandoned open subscription keeps costing the pump one ring append
// per event.
type Subscription struct {
	hub  *hub
	id   uint64
	kind SubKind

	mu      sync.Mutex
	ring    []Event
	start   int // index of the oldest buffered event
	n       int // buffered event count
	dropped uint64
	closed  bool
	wake    chan struct{} // cap 1; signalled on push and Close

	view func() *HeadView // the chain's current view (SubHeads only)
}

// Wait returns the channel signalled whenever events (or a close) are
// ready to Drain. The channel never closes; after each wake-up call
// Drain (or Newest) once: an event pushed after that Drain signals the
// channel again.
func (s *Subscription) Wait() <-chan struct{} { return s.wake }

// Newest is the consumer step of a SubscribeHeads subscription, called
// once per wake from Wait. It drains the ring and returns the newest
// drained event's view — views are cumulative, so it covers every event
// drained with it — or, after a wake that brought only a gap notice,
// the chain's current view; nil when the wake brought nothing. alive is
// false once the subscription is closed: deliver v first, then stop.
func (s *Subscription) Newest() (v *HeadView, alive bool) {
	events, gap, alive := s.Drain()
	switch {
	case len(events) > 0:
		v = events[len(events)-1].View
	case gap > 0:
		v = s.view()
	}
	return v, alive
}

// Drain removes and returns every buffered event in order. gap is the
// number of events dropped since the previous Drain because the ring
// was full (the slow-subscriber notice), and alive is false once the
// subscription is closed and emptied.
func (s *Subscription) Drain() (events []Event, gap uint64, alive bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n > 0 {
		events = make([]Event, s.n)
		for i := 0; i < s.n; i++ {
			events[i] = s.ring[(s.start+i)%len(s.ring)]
			s.ring[(s.start+i)%len(s.ring)] = Event{} // release view refs
		}
		s.start, s.n = 0, 0
	}
	gap, s.dropped = s.dropped, 0
	return events, gap, !s.closed
}

// Close unregisters the subscription and wakes any waiter. Safe to call
// more than once and concurrently with a seal.
func (s *Subscription) Close() {
	s.hub.remove(s.id)
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		s.signal()
		mSubscribers.Add(-1)
	}
}

// push appends one event, dropping the oldest when the ring is full.
// Called only by the hub pump.
func (s *Subscription) push(ev Event) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.n == len(s.ring) {
		s.ring[s.start] = Event{}
		s.start = (s.start + 1) % len(s.ring)
		s.n--
		s.dropped++
		mSubDropped.Inc()
	}
	s.ring[(s.start+s.n)%len(s.ring)] = ev
	s.n++
	s.mu.Unlock()
	mSubEvents.Inc()
	s.signal()
}

// addGap records externally dropped events (hub queue overflow).
func (s *Subscription) addGap(n uint64) {
	s.mu.Lock()
	s.dropped += n
	s.mu.Unlock()
	s.signal()
}

func (s *Subscription) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// hub is the chain-side subscription broker. The zero value is not
// usable; Blockchain embeds a pointer created by newHub.
type hub struct {
	mu       sync.Mutex
	subs     map[uint64]*Subscription
	nextID   uint64
	queue    []Event
	qDropped [2]uint64 // events shed from the queue, by SubKind
	closed   bool

	pumpOnce sync.Once
	pumpWake chan struct{} // cap 1
	done     chan struct{}
}

func newHub() *hub {
	return &hub{
		subs:     make(map[uint64]*Subscription),
		pumpWake: make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
}

// subscribe registers a new ring of the given kind and capacity,
// starting the pump on first use. view is the chain's current view,
// read by Newest after a gap-only wake.
func (h *hub) subscribe(kind SubKind, buf int, view func() *HeadView) *Subscription {
	if buf <= 0 {
		buf = defaultSubBuffer
	}
	s := &Subscription{
		hub:  h,
		kind: kind,
		ring: make([]Event, buf),
		wake: make(chan struct{}, 1),
		view: view,
	}
	h.mu.Lock()
	if h.closed {
		s.closed = true
		h.mu.Unlock()
		return s
	}
	h.nextID++
	s.id = h.nextID
	h.subs[s.id] = s
	h.mu.Unlock()
	mSubscribers.Add(1)
	h.pumpOnce.Do(func() { go h.pump() })
	return s
}

func (h *hub) remove(id uint64) {
	h.mu.Lock()
	delete(h.subs, id)
	h.mu.Unlock()
}

// subscriberCount reports the live subscription count.
func (h *hub) subscriberCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// enqueue is the publisher side: O(1), non-blocking, called with bc.mu
// held. Events are dropped outright while nobody subscribes, so an
// unwatched chain pays two mutex ops per seal and nothing else.
func (h *hub) enqueue(ev Event) {
	h.mu.Lock()
	if h.closed || len(h.subs) == 0 {
		h.mu.Unlock()
		return
	}
	if len(h.queue) >= hubQueueMax {
		// Shed the oldest event; every subscriber learns the loss as a
		// gap notice rather than the publisher ever blocking.
		h.qDropped[h.queue[0].kind()]++
		copy(h.queue, h.queue[1:])
		h.queue = h.queue[:len(h.queue)-1]
		mSubDropped.Inc()
	}
	h.queue = append(h.queue, ev)
	h.mu.Unlock()
	select {
	case h.pumpWake <- struct{}{}:
	default:
	}
}

// close shuts the hub down: the pump exits and every subscription is
// closed (its consumers wake and observe alive == false).
func (h *hub) close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	subs := make([]*Subscription, 0, len(h.subs))
	for _, s := range h.subs {
		subs = append(subs, s)
	}
	h.mu.Unlock()
	close(h.done)
	for _, s := range subs {
		s.Close()
	}
}

// pump drains the hub queue and fans each event out to the matching
// subscriber rings. One goroutine per chain, started on first
// subscribe, exiting on hub close.
func (h *hub) pump() {
	for {
		select {
		case <-h.pumpWake:
		case <-h.done:
			return
		}
		for {
			h.mu.Lock()
			batch := h.queue
			h.queue = nil
			gaps := h.qDropped
			h.qDropped = [2]uint64{}
			subs := make([]*Subscription, 0, len(h.subs))
			for _, s := range h.subs {
				subs = append(subs, s)
			}
			h.mu.Unlock()
			if len(batch) == 0 && gaps == [2]uint64{} {
				break
			}
			_, sp := xtrace.StartRoot(context.Background(), "chain", "subFanout", "")
			for _, s := range subs {
				if gap := gaps[s.kind]; gap > 0 {
					s.addGap(gap)
				}
			}
			for _, ev := range batch {
				kind := ev.kind()
				for _, s := range subs {
					if s.kind == kind {
						s.push(ev)
					}
				}
			}
			sp.End()
		}
	}
}

// --- Blockchain surface ----------------------------------------------------

// SubscribeHeads returns a subscription delivering one event per
// published head view, with a ring of buf events (buf <= 0 picks the
// default). The sealer never blocks on a subscriber: a consumer that
// stops draining loses events and sees the loss as a gap notice.
func (bc *Blockchain) SubscribeHeads(buf int) *Subscription {
	return bc.hub.subscribe(SubHeads, buf, bc.View)
}

// SubscribePendingTxs returns a subscription delivering the hash of
// every transaction admitted for sealing or queueing.
func (bc *Blockchain) SubscribePendingTxs(buf int) *Subscription {
	return bc.hub.subscribe(SubPendingTxs, buf, nil)
}

// Subscribers reports the number of live hub subscriptions.
func (bc *Blockchain) Subscribers() int { return bc.hub.subscriberCount() }
