package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"time"

	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/ipfs"
	"legalchain/internal/uint256"
	"legalchain/internal/web3"
)

// Tracing from outside the program: the benchmark wraps the two
// interface seams it constructs itself — web3.Backend and ipfs.Store —
// and opens a span around every call it makes into core. Nothing under
// internal/ is touched. Spans stay in memory until the run ends.

// span is one timed interval. Times are nanoseconds since the tracer's
// origin. Parent is the index of the enclosing span in the same tracer,
// -1 for a root. Spans of one lifecycle (or one audit operation) share
// Group.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Group  int32  `json:"group"`
}

// tracer belongs to exactly one client goroutine, so it needs no lock.
// A nil tracer, or one switched off, records nothing; the lifecycle
// workloads switch it on for every other lifecycle so traced and
// untraced lifecycles interleave in one run.
type tracer struct {
	on     bool
	origin time.Time
	client int
	group  int32
	spans  []span
	stack  []int32
}

func newTracer(origin time.Time, client int) *tracer {
	return &tracer{origin: origin, client: client}
}

// begin opens a span under the innermost open one and returns its index
// (-1 when not recording).
func (t *tracer) begin(name string) int32 {
	if t == nil || !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.origin).Nanoseconds(), Parent: parent, Group: t.group})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.origin).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes sums, per span name, each span's duration minus the part of
// it covered by its direct children. One goroutine's spans never
// overlap, so the children's durations simply subtract.
func selfTimes(tracers []*tracer) (self map[string]float64, count map[string]int) {
	self, count = map[string]float64{}, map[string]int{}
	for _, t := range tracers {
		if t == nil {
			continue
		}
		own := make([]int64, len(t.spans))
		for i, s := range t.spans {
			own[i] += s.End - s.Start
			if s.Parent >= 0 {
				own[s.Parent] -= s.End - s.Start
			}
		}
		for i, s := range t.spans {
			self[s.Name] += float64(own[i]) / 1e6
			count[s.Name]++
		}
	}
	return self, count
}

// durationsOf returns the sorted durations, in milliseconds, of every
// span called name.
func durationsOf(tracers []*tracer, name string) []float64 {
	var out []float64
	for _, t := range tracers {
		if t == nil {
			continue
		}
		for _, s := range t.spans {
			if s.Name == name {
				out = append(out, float64(s.End-s.Start)/1e6)
			}
		}
	}
	sort.Float64s(out)
	return out
}

// writeSpans stores the span file named by -trace-out.
func writeSpans(path string, header map[string]interface{}, tracers []*tracer) error {
	type clientSpans struct {
		Client int    `json:"client"`
		Spans  []span `json:"spans"`
	}
	doc := struct {
		Header  map[string]interface{} `json:"header"`
		Clients []clientSpans          `json:"clients"`
	}{Header: header}
	for _, t := range tracers {
		if t != nil {
			doc.Clients = append(doc.Clients, clientSpans{Client: t.client, Spans: t.spans})
		}
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// Span names of the seams. chain.read gathers the cheap node reads the
// web3 client makes around a transaction (nonce, gas price, receipt,
// code, logs).
const (
	spanSendRaw  = "chain.send_raw"
	spanCall     = "chain.call"
	spanEstimate = "chain.estimate_gas"
	spanRead     = "chain.read"
	spanIPFSAdd  = "ipfs.add"
	spanIPFSGet  = "ipfs.get"
)

// tracedBackend is web3.LocalBackend with a span around every Backend
// method the client uses. Embedding keeps HeadView and SubscribeHeads
// reachable: core type-asserts for them and the upgrade guard fails
// closed without a pinned head view.
type tracedBackend struct {
	*web3.LocalBackend
	tr *tracer
}

var (
	_ web3.Backend        = (*tracedBackend)(nil)
	_ web3.HeadViewer     = (*tracedBackend)(nil)
	_ web3.HeadSubscriber = (*tracedBackend)(nil)
	_ web3.ContextBackend = (*tracedBackend)(nil)
)

func (b *tracedBackend) SendRawTransaction(raw []byte) (ethtypes.Hash, error) {
	defer b.tr.end(b.tr.begin(spanSendRaw))
	return b.LocalBackend.SendRawTransaction(raw)
}

func (b *tracedBackend) SendRawTransactionCtx(ctx context.Context, raw []byte) (ethtypes.Hash, error) {
	defer b.tr.end(b.tr.begin(spanSendRaw))
	return b.LocalBackend.SendRawTransactionCtx(ctx, raw)
}

func (b *tracedBackend) CallContract(msg web3.CallMsg) ([]byte, error) {
	defer b.tr.end(b.tr.begin(spanCall))
	return b.LocalBackend.CallContract(msg)
}

func (b *tracedBackend) CallContractCtx(ctx context.Context, msg web3.CallMsg) ([]byte, error) {
	defer b.tr.end(b.tr.begin(spanCall))
	return b.LocalBackend.CallContractCtx(ctx, msg)
}

func (b *tracedBackend) EstimateGas(msg web3.CallMsg) (uint64, error) {
	defer b.tr.end(b.tr.begin(spanEstimate))
	return b.LocalBackend.EstimateGas(msg)
}

func (b *tracedBackend) GetNonce(addr ethtypes.Address) (uint64, error) {
	defer b.tr.end(b.tr.begin(spanRead))
	return b.LocalBackend.GetNonce(addr)
}

func (b *tracedBackend) GasPrice() (uint256.Int, error) {
	defer b.tr.end(b.tr.begin(spanRead))
	return b.LocalBackend.GasPrice()
}

func (b *tracedBackend) GetCode(addr ethtypes.Address) ([]byte, error) {
	defer b.tr.end(b.tr.begin(spanRead))
	return b.LocalBackend.GetCode(addr)
}

func (b *tracedBackend) TransactionReceipt(h ethtypes.Hash) (*ethtypes.Receipt, bool, error) {
	defer b.tr.end(b.tr.begin(spanRead))
	return b.LocalBackend.TransactionReceipt(h)
}

func (b *tracedBackend) FilterLogs(q chain.FilterQuery) ([]*ethtypes.Log, error) {
	defer b.tr.end(b.tr.begin(spanRead))
	return b.LocalBackend.FilterLogs(q)
}

// tracedStore is an ipfs.Store with spans around Add and Get, and a
// count of the bytes that crossed the seam while the tracer was on.
type tracedStore struct {
	ipfs.Store
	tr    *tracer
	bytes int64
}

func (s *tracedStore) Add(data []byte) (ipfs.CID, error) {
	id := s.tr.begin(spanIPFSAdd)
	defer s.tr.end(id)
	if id >= 0 {
		s.bytes += int64(len(data))
	}
	return s.Store.Add(data)
}

func (s *tracedStore) Get(cid ipfs.CID) ([]byte, error) {
	id := s.tr.begin(spanIPFSGet)
	defer s.tr.end(id)
	data, err := s.Store.Get(cid)
	if id >= 0 {
		s.bytes += int64(len(data))
	}
	return data, err
}
