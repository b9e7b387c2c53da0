package rpc

import (
	"context"
	"net/http"
	"sync"

	"legalchain/internal/chain"
	"legalchain/internal/hexutil"
	"legalchain/internal/jsonwire"
	"legalchain/internal/obs"
	"legalchain/internal/ws"
)

// WebSocket transport: the same JSON-RPC dispatch as ServeHTTP plus the
// push methods polling cannot express — eth_subscribe / eth_unsubscribe
// with the newHeads, logs and newPendingTransactions channels. Events
// come from the chain's subscription hub, which never lets a slow
// socket touch the sealer: when this session falls behind, the hub
// drops events from its ring and the session recovers by walking the
// cumulative head view, emitting a gap notice only for blocks that are
// genuinely gone.
//
// Subscription IDs are hex quantities ("0x1a"), unique per server
// process, and shared between the subscribe result, every notification
// envelope and eth_unsubscribe.

// wsSubKind names the subscription channels eth_subscribe accepts.
const (
	wsKindHeads   = "newHeads"
	wsKindLogs    = "logs"
	wsKindPending = "newPendingTransactions"
)

// wsSub is one eth_subscribe registration on a session.
type wsSub struct {
	id    string
	kind  string
	query chain.FilterQuery // logs only: address/topic criteria
	last  uint64            // highest block already delivered
}

// wsSession is one upgraded connection: a read loop dispatching
// JSON-RPC, plus (lazily) one goroutine per hub channel fanning events
// into notifications.
type wsSession struct {
	srv  *Server
	conn *ws.Conn
	ctx  context.Context

	mu       sync.Mutex
	subs     map[string]*wsSub
	headsSub *chain.Subscription // shared by newHeads and logs subs
	pendSub  *chain.Subscription
}

// ServeWS upgrades r to a WebSocket and serves JSON-RPC over it until
// the peer disconnects. Mount it on the dedicated -ws-addr listener or
// any mux path.
func (s *Server) ServeWS(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	if obs.RequestIDFrom(ctx) == "" {
		if rid := r.Header.Get(obs.RequestIDHeader); rid != "" {
			ctx = obs.WithRequestID(ctx, rid)
		}
	}
	conn, err := ws.Upgrade(w, r)
	if err != nil {
		return // Upgrade already wrote the HTTP error
	}
	rpcWsSessions.Inc()
	defer rpcWsSessions.Dec()
	sess := &wsSession{srv: s, conn: conn, ctx: ctx, subs: map[string]*wsSub{}}
	defer sess.teardown()
	sess.readLoop()
}

// teardown closes the connection first — unblocking any notifier stuck
// in a write to a dead peer — and only then the hub subscriptions.
func (sess *wsSession) teardown() {
	sess.conn.Close(ws.CloseGoingAway, "")
	sess.mu.Lock()
	heads, pend := sess.headsSub, sess.pendSub
	sess.headsSub, sess.pendSub = nil, nil
	sess.subs = map[string]*wsSub{}
	sess.mu.Unlock()
	if heads != nil {
		heads.Close()
	}
	if pend != nil {
		pend.Close()
	}
}

// closeWith ends the session with a close frame whose reason is the
// same error envelope HTTP responses carry, truncated to the RFC's
// 123-byte reason budget.
func (sess *wsSession) closeWith(wsCode, rpcCode int, msg string) {
	reason := appendError(nil, &rpcError{
		Code:      rpcCode,
		Message:   msg,
		RequestID: obs.RequestIDFrom(sess.ctx),
	})
	if len(reason) > ws.MaxCloseReason {
		// Retry without the request ID before hard truncation.
		reason = appendError(reason[:0], &rpcError{Code: rpcCode, Message: msg})
	}
	sess.conn.Close(wsCode, string(reason))
}

// readLoop answers each frame through serveMessage, the codec HTTP
// uses too. Notifications from subscriptions interleave on the same
// connection; ws.Conn serialises the frames.
func (sess *wsSession) readLoop() {
	for {
		_, payload, err := sess.conn.ReadMessage()
		if err != nil {
			return
		}
		out := jsonwire.GetBuffer()
		answer := serveMessage((*out)[:0], payload, sess.handleReq)
		sess.conn.WriteMessage(ws.OpText, answer)
		jsonwire.PutBuffer(out, answer)
	}
}

// handleReq routes the two session-scoped methods and defers the rest
// to the shared dispatch table.
func (sess *wsSession) handleReq(req *request) response {
	switch req.method {
	case "eth_subscribe":
		id, err := sess.subscribe(req.params)
		if err != nil {
			e := toRPCError(err)
			e.RequestID = obs.RequestIDFrom(sess.ctx)
			return response{id: req.id, err: e}
		}
		return response{id: req.id, result: id}
	case "eth_unsubscribe":
		id, err := strParam(req.params, 0)
		if err != nil {
			return response{id: req.id, err: toRPCError(err)}
		}
		return response{id: req.id, result: sess.unsubscribe(id)}
	default:
		return sess.srv.handle(sess.ctx, req)
	}
}

// subscribe registers one channel and lazily starts the notifier
// goroutine feeding it.
func (sess *wsSession) subscribe(params [][]byte) (string, error) {
	kind, err := strParam(params, 0)
	if err != nil {
		return "", err
	}
	sub := &wsSub{
		id:   hexutil.EncodeUint64(sess.srv.subSeq.Add(1)),
		kind: kind,
	}
	switch kind {
	case wsKindHeads:
	case wsKindLogs:
		q, err := filterParam(params, 1, sess.srv.bc.BlockNumber())
		if err != nil {
			return "", err
		}
		// A live subscription only streams forward; range fields of the
		// criteria object are ignored, matching geth.
		q.FromBlock, q.ToBlock = 0, nil
		sub.query = q
	case wsKindPending:
	default:
		return "", invalidParams("unknown subscription type %q", kind)
	}

	sess.mu.Lock()
	var startHeads, startPending bool
	if kind == wsKindPending {
		if sess.pendSub == nil {
			sess.pendSub = sess.srv.bc.SubscribePendingTxs(0)
			startPending = true
		}
	} else {
		if sess.headsSub == nil {
			sess.headsSub = sess.srv.bc.SubscribeHeads(0)
			startHeads = true
		}
	}
	// The start height is read once the hub subscription exists, so a
	// block sealed in between wakes the heads loop instead of waiting
	// for the next seal.
	sub.last = sess.srv.bc.BlockNumber()
	sess.subs[sub.id] = sub
	sess.mu.Unlock()
	rpcSubscriptions.With(kind).Inc()
	if startHeads {
		go sess.headsLoop(sess.headsSub)
	}
	if startPending {
		go sess.pendingLoop(sess.pendSub)
	}
	return sub.id, nil
}

// unsubscribe removes id; unknown IDs return false, mirroring
// eth_uninstallFilter.
func (sess *wsSession) unsubscribe(id string) bool {
	sess.mu.Lock()
	sub, ok := sess.subs[id]
	if ok {
		delete(sess.subs, id)
	}
	sess.mu.Unlock()
	if ok {
		rpcSubscriptions.With(sub.kind).Dec()
	}
	return ok
}

// headsLoop delivers newHeads and logs notifications from each wake's
// newest view. Delivery always walks blocks (sub.last, head] on that
// view, so hub-ring drops cost nothing as long as the view still holds
// the blocks; only eviction turns a drop into a gap notice.
func (sess *wsSession) headsLoop(hubSub *chain.Subscription) {
	for range hubSub.Wait() {
		v, alive := hubSub.Newest()
		if v != nil && !sess.deliverBlocks(v) {
			hubSub.Close()
			return
		}
		if !alive {
			// The hub closed under us — the node is shutting down.
			sess.closeWith(ws.CloseGoingAway, codeServerError, "node shutting down")
			return
		}
	}
}

// registered snapshots the session's pending-transaction registrations
// (pending) or its heads and logs ones (!pending), so that notifications
// are written without holding the lock: a stalled peer must not block
// eth_subscribe calls forever.
func (sess *wsSession) registered(pending bool) []*wsSub {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	subs := make([]*wsSub, 0, len(sess.subs))
	for _, sub := range sess.subs {
		if (sub.kind == wsKindPending) == pending {
			subs = append(subs, sub)
		}
	}
	return subs
}

// deliverBlocks pushes every undelivered block on v to each heads/logs
// subscription, in order. Returns false when the connection is gone.
func (sess *wsSession) deliverBlocks(v *chain.HeadView) bool {
	head := v.BlockNumber()
	for _, sub := range sess.registered(false) {
		if sub.last >= head {
			continue
		}
		from := sub.last + 1
		switch sub.kind {
		case wsKindHeads:
			missed := uint64(0)
			for n := from; n <= head; n++ {
				b, ok := v.BlockByNumber(n)
				if !ok {
					missed++
					continue
				}
				if !sess.notify(sub.id, headAnswer{b}) {
					return false
				}
			}
			if missed > 0 {
				if !sess.notify(sub.id, gapNotice{
					missed: hexutil.EncodeUint64(missed),
					resume: hexutil.EncodeUint64(head),
				}) {
					return false
				}
			}
		case wsKindLogs:
			q := sub.query
			q.FromBlock, q.ToBlock = from, &head
			for _, l := range v.FilterLogs(q) {
				if !sess.notify(sub.id, l) {
					return false
				}
			}
		}
		sub.last = head
	}
	return true
}

// pendingLoop streams admitted transaction hashes. Pending hashes have
// no replayable view behind them, so here a hub drop is a real loss and
// becomes a gap notice immediately.
func (sess *wsSession) pendingLoop(hubSub *chain.Subscription) {
	for range hubSub.Wait() {
		events, gap, alive := hubSub.Drain()
		for _, sub := range sess.registered(true) {
			for _, ev := range events {
				if !sess.notify(sub.id, ev.TxHash.Hex()) {
					hubSub.Close()
					return
				}
			}
			if gap > 0 {
				if !sess.notify(sub.id, gapNotice{missed: hexutil.EncodeUint64(gap)}) {
					hubSub.Close()
					return
				}
			}
		}
		if !alive {
			sess.closeWith(ws.CloseGoingAway, codeServerError, "node shutting down")
			return
		}
	}
}

// notify writes one subscription event; false when the connection is
// gone.
func (sess *wsSession) notify(id string, result interface{}) bool {
	out := jsonwire.GetBuffer()
	msg := appendNotification((*out)[:0], id, result)
	err := sess.conn.WriteMessage(ws.OpText, msg)
	jsonwire.PutBuffer(out, msg)
	return err == nil
}
