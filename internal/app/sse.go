package app

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/hexutil"
	"legalchain/internal/obs"
	"legalchain/internal/web3"
	"legalchain/internal/xtrace"
)

// Server-Sent Events streams: the presentation tier's push channel.
// Where the JSON-RPC endpoint offers eth_subscribe over WebSocket, the
// REST API offers the same head and contract-event feeds as
// text/event-stream — consumable from a browser EventSource or
// `curl -N` with no protocol implementation at all.
//
//	GET /api/v1/heads                        event: head, one per sealed block
//	GET /api/v1/contracts/{addr}/events      event: log, one per contract log
//
// Frames carry an `id:` (the block number, or "block:logIndex" for
// logs), so a dropped connection resumes from the Last-Event-ID header
// the browser replays automatically; `?since=<block>` forces an
// explicit starting height. Resume replays whole blocks: a log stream
// resumed mid-block delivers that block's earlier logs again
// (at-least-once, never a hole).
//
// Errors inside an established stream use the same envelope as v1 JSON
// responses, as an `event: error` frame; heads a subscriber was too
// slow to receive and the chain has evicted arrive as `event: gap`.
// Every stream is fed from the chain's subscription hub, so a stalled
// consumer never delays the sealer.

// sseHeartbeat is how often an idle stream emits a comment frame so
// intermediaries don't reap the connection.
const sseHeartbeat = 15 * time.Second

// sseStream wraps one established event-stream response.
type sseStream struct {
	w http.ResponseWriter
	f *http.ResponseController
	r *http.Request
}

// startSSE sends the event-stream headers, or returns nil when the
// writer cannot stream. The ResponseController reaches Flush through
// instrumentation wrappers (obs.StatusWriter unwraps).
func startSSE(w http.ResponseWriter, r *http.Request) *sseStream {
	f := http.NewResponseController(w)
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Accel-Buffering", "no") // common reverse proxies: do not buffer
	w.WriteHeader(http.StatusOK)
	if err := f.Flush(); err != nil {
		return nil // writer cannot stream; headers already gone
	}
	return &sseStream{w: w, f: f, r: r}
}

// send writes one event frame. data must already be JSON, on one line:
// SSE data lines cannot contain raw newlines.
func (s *sseStream) send(event, id string, data []byte) error {
	if _, err := fmt.Fprintf(s.w, "event: %s\n", event); err != nil {
		return err
	}
	if id != "" {
		if _, err := fmt.Fprintf(s.w, "id: %s\n", id); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(s.w, "data: %s\n\n", data); err != nil {
		return err
	}
	return s.f.Flush()
}

// comment writes a heartbeat comment frame.
func (s *sseStream) comment() error {
	if _, err := fmt.Fprint(s.w, ": heartbeat\n\n"); err != nil {
		return err
	}
	return s.f.Flush()
}

// sendError emits the v1 error envelope as an error event — the same
// {code,message,requestId} taxonomy JSON responses use.
func (s *sseStream) sendError(code, message string) {
	s.send("error", "", appendV1Error(nil, s.r, code, message, nil))
}

// sendGap reports heads dropped beyond recovery: missed blocks are
// gone, the stream resumes at block resume.
func (s *sseStream) sendGap(missed, resume uint64) error {
	buf, _ := json.Marshal(map[string]uint64{"missed": missed, "resume": resume})
	return s.send("gap", "", buf)
}

// sseSince resolves the resume height, the last block already
// delivered: ?since=<block> (sinceParam's rule; malformed is an error)
// wins over the Last-Event-ID header. A bare "<block>" id was a whole
// block; a "<block>:<idx>" log id may have been followed by more logs of
// its block, so the stream resumes at that block, replaying its earlier
// logs. The browser replays the header by itself, so a malformed one is
// ignored. Returns (height, true) when the client asked to resume.
func sseSince(r *http.Request) (uint64, bool, error) {
	if r.URL.Query().Get("since") != "" {
		n, err := sinceParam(r)
		return n, err == nil, err
	}
	if s := r.Header.Get("Last-Event-ID"); s != "" {
		block, _, midBlock := strings.Cut(s, ":")
		if n, err := strconv.ParseUint(block, 10, 64); err == nil {
			if midBlock && n > 0 {
				n--
			}
			return n, true, nil
		}
	}
	return 0, false, nil
}

// parseBlockParam accepts a decimal or 0x-hex block number.
func parseBlockParam(s string) (uint64, error) {
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		return hexutil.DecodeUint64(s)
	}
	return strconv.ParseUint(s, 10, 64)
}

// sseServe runs one event stream. A method other than GET or a
// malformed ?since= is answered with the v1 envelope. It then subscribes
// to the hub and pins the start view before the response headers go
// out: a client may act as soon as it holds them, and a block sealed
// then must reach the stream through the subscription instead of
// falling between view and subscribe. from picks the high-water mark on
// the pinned view from sseSince's answer; deliver emits what a view
// holds past a mark and returns the new one.
func (a *App) sseServe(w http.ResponseWriter, r *http.Request, op string, from func(v *chain.HeadView, since uint64, resumed bool) uint64, deliver func(*sseStream, *chain.HeadView, uint64) (uint64, error)) {
	if r.Method != http.MethodGet {
		writeV1Error(w, r, http.StatusMethodNotAllowed, v1NotAllowed, "GET only")
		return
	}
	since, resumed, err := sseSince(r)
	if err != nil {
		writeV1Error(w, r, http.StatusBadRequest, v1BadRequest, err.Error())
		return
	}
	sub := a.node.SubscribeHeads(0)
	defer sub.Close()
	v := a.node.HeadView()
	last := from(v, since, resumed)
	stream := startSSE(w, r)
	if stream == nil {
		return
	}
	_, sp := xtrace.StartRoot(r.Context(), "web", op, obs.RequestIDFrom(r.Context()))
	defer sp.End()
	if last, err = deliver(stream, v, last); err != nil {
		return
	}
	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			if stream.comment() != nil {
				return
			}
		case <-sub.Wait():
			v, alive := sub.Newest()
			if v != nil {
				if last, err = deliver(stream, v, last); err != nil {
					return
				}
			}
			if !alive {
				stream.sendError(v1Internal, "node shutting down")
				return
			}
		}
	}
}

// v1Heads streams every sealed head: GET /api/v1/heads.
func (a *App) v1Heads(w http.ResponseWriter, r *http.Request, u *User) {
	var alertSeq uint64
	from := func(v *chain.HeadView, last uint64, resumed bool) uint64 {
		// Alert frames ride the head stream. A fresh stream starts at the
		// current alert high-water mark (history is served by
		// /api/v1/alerts, not replayed into every new stream).
		if a.Watch != nil {
			for _, al := range a.Watch.Alerts() {
				alertSeq = max(alertSeq, al.Seq)
			}
		}
		if !resumed && v.BlockNumber() > 0 {
			// Fresh stream: deliver the current head immediately so the
			// consumer renders without waiting for the next seal.
			last = v.BlockNumber() - 1
		}
		return last
	}
	a.sseServe(w, r, "sseHeads", from, func(s *sseStream, v *chain.HeadView, last uint64) (uint64, error) {
		last, err := a.sseDeliverHeads(s, v, last)
		if err == nil {
			alertSeq, err = a.sseDeliverAlerts(s, v, alertSeq)
		}
		return last, err
	})
}

// sseDeliverAlerts folds the watchtower to v's head and emits one
// event:alert frame per rule firing past since. Alert frames carry no
// id: Last-Event-ID keeps tracking block numbers, and a resumed stream
// re-reads missed alerts from /api/v1/alerts.
func (a *App) sseDeliverAlerts(s *sseStream, v *chain.HeadView, since uint64) (uint64, error) {
	if a.Watch == nil {
		return since, nil
	}
	a.Watch.SyncView(v)
	for _, al := range a.Watch.AlertsSince(since) {
		buf, err := json.Marshal(al)
		if err != nil {
			return since, err
		}
		if err := s.send("alert", "", buf); err != nil {
			return since, err
		}
		since = al.Seq
	}
	return since, nil
}

// sseDeliverHeads walks (last, head] on v, emitting one head frame per
// block and a gap frame for evicted ones. Returns the new high-water
// mark.
func (a *App) sseDeliverHeads(s *sseStream, v *chain.HeadView, last uint64) (uint64, error) {
	head := v.BlockNumber()
	missed := uint64(0)
	for n := last + 1; n <= head; n++ {
		b, ok := v.BlockByNumber(n)
		if !ok {
			missed++
			continue
		}
		buf, err := json.Marshal(map[string]interface{}{
			"number":     b.Number(),
			"hash":       b.Hash().Hex(),
			"parentHash": b.Header.ParentHash.Hex(),
			"stateRoot":  b.Header.StateRoot.Hex(),
			"timestamp":  b.Header.Time,
			"gasUsed":    b.Header.GasUsed,
			"txCount":    len(b.Transactions),
		})
		if err != nil {
			return last, err
		}
		if err := s.send("head", strconv.FormatUint(n, 10), buf); err != nil {
			return last, err
		}
	}
	if missed > 0 {
		if err := s.sendGap(missed, head); err != nil {
			return last, err
		}
	}
	if head > last {
		last = head
	}
	return last, nil
}

// v1ContractEvents streams a contract's logs:
// GET /api/v1/contracts/{addr}/events. Logs are emitted raw (address,
// topics, data) plus a decoded form when the registry knows the ABI.
func (a *App) v1ContractEvents(w http.ResponseWriter, r *http.Request, u *User, addr ethtypes.Address) {
	if _, err := a.Manager.GetRow(addr); err != nil {
		writeV1Error(w, r, http.StatusNotFound, v1NotFound, err.Error())
		return
	}
	// Best-effort decoder: the bound version's ABI names the events.
	var dec *web3.BoundContract
	if bound, err := a.Manager.BindVersion(addr); err == nil {
		dec = bound
	}
	from := func(v *chain.HeadView, last uint64, resumed bool) uint64 {
		if !resumed {
			last = v.BlockNumber() // live stream: only future logs
		}
		return last
	}
	a.sseServe(w, r, "sseContractEvents", from, func(s *sseStream, v *chain.HeadView, last uint64) (uint64, error) {
		return a.sseDeliverLogs(s, v, addr, dec, last)
	})
}

// sseDeliverLogs emits every log of addr in blocks (last, head].
func (a *App) sseDeliverLogs(s *sseStream, v *chain.HeadView, addr ethtypes.Address, dec *web3.BoundContract, last uint64) (uint64, error) {
	head := v.BlockNumber()
	if head <= last {
		return last, nil
	}
	q := chain.FilterQuery{
		FromBlock: last + 1,
		ToBlock:   &head,
		Addresses: []ethtypes.Address{addr},
	}
	for _, l := range v.FilterLogs(q) {
		topics := make([]string, len(l.Topics))
		for i, t := range l.Topics {
			topics[i] = t.Hex()
		}
		out := map[string]interface{}{
			"address":     l.Address.Hex(),
			"topics":      topics,
			"data":        hexutil.Encode(l.Data),
			"blockNumber": l.BlockNumber,
			"txHash":      l.TxHash.Hex(),
			"logIndex":    l.Index,
		}
		if dec != nil {
			if d, err := dec.ABI.DecodeLog(l); err == nil {
				args := map[string]string{}
				for k, val := range d.Args {
					args[k] = fmt.Sprintf("%v", val)
				}
				out["event"] = d.Name
				out["args"] = args
			}
		}
		buf, err := json.Marshal(out)
		if err != nil {
			return last, err
		}
		id := fmt.Sprintf("%d:%d", l.BlockNumber, l.Index)
		if err := s.send("log", id, buf); err != nil {
			return last, err
		}
	}
	return head, nil
}
