package rpc

import (
	"fmt"
	"sync"
	"time"

	"legalchain/internal/chain"
	"legalchain/internal/hexutil"
)

// Polling filters: eth_newFilter / eth_newBlockFilter hand out an ID,
// eth_getFilterChanges returns what happened since the previous poll,
// eth_uninstallFilter removes it. This is the notification mechanism
// web3 clients fall back to over plain HTTP, where subscriptions are
// unavailable — the paper's rental DApp polls for its contract events
// this way.

// filterTimeout is how long an unpolled filter survives. Clients that
// stop polling (crashed DApps) would otherwise leak registry entries.
const filterTimeout = 5 * time.Minute

// maxFilters caps the registry. Installing past the cap evicts the
// stalest filter, so a client minting filters in a loop degrades its
// own oldest handles instead of growing server memory without bound.
const maxFilters = 4096

type filterKind int

const (
	logFilter filterKind = iota
	blockFilter
)

type filter struct {
	kind     filterKind
	query    chain.FilterQuery // logFilter only
	next     uint64            // first block number the next poll inspects
	lastUsed time.Time
}

type filterRegistry struct {
	mu      sync.Mutex
	nextID  uint64
	filters map[string]*filter
}

// reapLocked prunes every filter that outlived its TTL. Called with
// r.mu held, on every registry operation — before this ran only on
// install, so a client that created filters once and then merely kept
// polling a dead ID never triggered a sweep and the map grew without
// bound.
func (r *filterRegistry) reapLocked(now time.Time) {
	for id, old := range r.filters {
		if now.Sub(old.lastUsed) > filterTimeout {
			delete(r.filters, id)
		}
	}
}

// install registers f and returns its ID, pruning expired entries and
// enforcing the registry cap.
func (r *filterRegistry) install(f *filter) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.filters == nil {
		r.filters = map[string]*filter{}
	}
	now := time.Now()
	r.reapLocked(now)
	if len(r.filters) >= maxFilters {
		// Still full after the TTL sweep: evict the stalest live filter.
		var oldestID string
		var oldest time.Time
		for id, old := range r.filters {
			if oldestID == "" || old.lastUsed.Before(oldest) {
				oldestID, oldest = id, old.lastUsed
			}
		}
		delete(r.filters, oldestID)
	}
	r.nextID++
	id := hexutil.EncodeUint64(r.nextID)
	f.lastUsed = now
	r.filters[id] = f
	rpcFiltersLive.Set(int64(len(r.filters)))
	return id
}

// get looks up id and refreshes its expiry clock. An expired entry is
// gone — polling a filter less often than filterTimeout loses it.
func (r *filterRegistry) get(id string) (*filter, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	r.reapLocked(now)
	rpcFiltersLive.Set(int64(len(r.filters)))
	f, ok := r.filters[id]
	if !ok {
		return nil, fmt.Errorf("filter not found")
	}
	f.lastUsed = now
	return f, nil
}

// uninstall removes id, reporting whether it existed. Unknown, expired
// or already-removed IDs return false — never an error — so clients
// can uninstall idempotently (eth_uninstallFilter's contract).
func (r *filterRegistry) uninstall(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reapLocked(time.Now())
	_, ok := r.filters[id]
	delete(r.filters, id)
	rpcFiltersLive.Set(int64(len(r.filters)))
	return ok
}

// newLogFilter registers a log filter. The first poll reports matches
// from the query's fromBlock (default: blocks sealed after creation).
func (s *Server) newLogFilter(q chain.FilterQuery, explicitFrom bool) string {
	next := s.bc.BlockNumber() + 1
	if explicitFrom {
		next = q.FromBlock
	}
	return s.filters.install(&filter{kind: logFilter, query: q, next: next})
}

// newBlockFilter registers a filter reporting hashes of newly sealed
// blocks.
func (s *Server) newBlockFilter() string {
	return s.filters.install(&filter{kind: blockFilter, next: s.bc.BlockNumber() + 1})
}

// filterChanges returns what happened since the last poll and advances
// the filter's cursor. Always an array, possibly empty.
func (s *Server) filterChanges(id string) (interface{}, error) {
	f, err := s.filters.get(id)
	if err != nil {
		return nil, err
	}
	// Pin one head view: the height the cursor advances to and the
	// blocks/logs served must come from the same chain snapshot, or a
	// seal racing the poll could skip (or double-report) a block.
	v := s.bc.View()
	head := v.BlockNumber()
	s.filters.mu.Lock()
	from := f.next
	if head >= from {
		f.next = head + 1
	}
	s.filters.mu.Unlock()
	if from > head {
		return []string{}, nil
	}

	switch f.kind {
	case blockFilter:
		out := []string{}
		for n := from; n <= head; n++ {
			if b, ok := v.BlockByNumber(n); ok {
				out = append(out, b.Hash().Hex())
			}
		}
		return out, nil
	default:
		q := f.query
		q.FromBlock = from
		to := head
		if q.ToBlock != nil && *q.ToBlock < to {
			to = *q.ToBlock
		}
		q.ToBlock = &to
		return v.FilterLogs(q), nil
	}
}

// filterLogs returns every log matching a log filter's full query,
// without moving the poll cursor — eth_getFilterLogs.
func (s *Server) filterLogs(id string) (interface{}, error) {
	f, err := s.filters.get(id)
	if err != nil {
		return nil, err
	}
	if f.kind != logFilter {
		return nil, fmt.Errorf("filter is not a log filter")
	}
	return s.bc.FilterLogs(f.query), nil
}
