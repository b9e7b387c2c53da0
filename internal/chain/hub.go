package chain

import (
	"sync"

	"legalchain/internal/ethtypes"
)

// Subscription hub: the push tier's fan-out point. Every seal already
// publishes an immutable HeadView through an atomic pointer (view.go);
// the hub turns that single publication into per-subscriber streams.
//
// The topology is sealer → per-subscriber bounded rings:
//
//   - The sealer (holding bc.mu) calls publishHeadLocked, and admission
//     announces each pending transaction; both hand the event to
//     hub.enqueue, which takes the hub mutex once and appends the event
//     to every ring of the matching kind. A ring append is a few pointer
//     writes under the subscriber's own mutex plus a non-blocking wake,
//     so the seal pays ≈ 0.6 µs per live subscriber and never blocks:
//     consumers hold that mutex only while copying events out, so a
//     frozen consumer — a WS client that stopped reading, an SSE peer
//     with a full TCP window — cannot stall the sealer.
//   - When a subscriber's ring is full the oldest event is dropped and
//     counted; the consumer learns the count as a gap notice on its
//     next Drain, which always returns the newest events with it, and
//     recovers by walking the (cumulative) latest view.
//
// Because each HeadEvent carries the full immutable view, a subscriber
// that fell behind has everything it needs to catch up in order:
// view.BlockByNumber serves the heads it missed and view.FilterLogs the
// logs, so drop-with-gap-notice loses no data for keeping-up clients
// and degrades to "resync from the view" for slow ones.

// defaultSubBuffer is the ring capacity used when Subscribe is called
// with buf <= 0.
const defaultSubBuffer = 64

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
// an abandoned open subscription keeps costing every seal one ring
// append.
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
}

// Wait returns the channel signalled whenever events (or a close) are
// ready to Drain. The channel never closes; after each wake-up call
// Drain (or Newest) once: an event pushed after that Drain signals the
// channel again.
func (s *Subscription) Wait() <-chan struct{} { return s.wake }

// Newest is the consumer step of a SubscribeHeads subscription, called
// once per wake from Wait. It drains the ring and returns the newest
// drained event's view — views are cumulative, so it covers every event
// drained with it, those a full ring dropped included — or nil when the
// wake brought nothing. alive is false once the subscription is closed:
// deliver v first, then stop.
func (s *Subscription) Newest() (v *HeadView, alive bool) {
	events, _, alive := s.Drain()
	if len(events) > 0 {
		v = events[len(events)-1].View
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
// Called only by hub.enqueue, under the hub mutex.
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

func (s *Subscription) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// hub is the chain-side subscription broker. The zero value is not
// usable; Blockchain embeds a pointer created by newHub.
type hub struct {
	mu     sync.Mutex
	subs   map[uint64]*Subscription
	nextID uint64
	closed bool
}

func newHub() *hub {
	return &hub{subs: make(map[uint64]*Subscription)}
}

// subscribe registers a new ring of the given kind and capacity.
func (h *hub) subscribe(kind SubKind, buf int) *Subscription {
	if buf <= 0 {
		buf = defaultSubBuffer
	}
	s := &Subscription{
		hub:  h,
		kind: kind,
		ring: make([]Event, buf),
		wake: make(chan struct{}, 1),
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

// enqueue is the publisher side, called with bc.mu held: it appends ev
// to every ring of its kind, dropping each full ring's oldest event,
// and never blocks. An unwatched chain pays two mutex ops per seal.
func (h *hub) enqueue(ev Event) {
	kind := ev.kind()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	for _, s := range h.subs {
		if s.kind == kind {
			s.push(ev)
		}
	}
}

// close shuts the hub down: every subscription is closed (its consumers
// wake and observe alive == false).
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
	for _, s := range subs {
		s.Close()
	}
}

// --- Blockchain surface ----------------------------------------------------

// SubscribeHeads returns a subscription delivering one event per
// published head view, with a ring of buf events (buf <= 0 picks the
// default). The sealer never blocks on a subscriber: a consumer that
// stops draining loses events and sees the loss as a gap notice.
func (bc *Blockchain) SubscribeHeads(buf int) *Subscription {
	return bc.hub.subscribe(SubHeads, buf)
}

// SubscribePendingTxs returns a subscription delivering the hash of
// every transaction admitted for sealing or queueing.
func (bc *Blockchain) SubscribePendingTxs(buf int) *Subscription {
	return bc.hub.subscribe(SubPendingTxs, buf)
}

// Subscribers reports the number of live hub subscriptions.
func (bc *Blockchain) Subscribers() int { return bc.hub.subscriberCount() }
