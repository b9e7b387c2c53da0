package app

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
)

// Cursor pagination for the v1 list endpoints.
//
//	GET /api/v1/contracts?limit=50&cursor=0xabc...&since=120
//	GET /api/v1/contracts/{addr}/payments?limit=20&cursor=40&since=120
//
// Responses carry "nextCursor" while more rows remain; pass it back
// verbatim to fetch the next page. Cursors are opaque to clients: for
// contracts it is the last returned address (rows are served in
// address order, so inserts between pages never shift the window), for
// payments the offset into the append-only history. `since=<block>`
// (decimal or 0x-hex) keeps only entries with on-chain activity at or
// after that block. Requests without limit/cursor return everything,
// unchanged from before pagination existed.

// maxPageLimit bounds one page; a cursor without an explicit limit
// pages by defaultPageLimit.
const (
	maxPageLimit     = 500
	defaultPageLimit = 100
)

// pageParams parses ?limit= and ?cursor=. limit == 0 with an empty
// cursor means "no pagination requested".
func pageParams(r *http.Request) (limit int, cursor string, err error) {
	q := r.URL.Query()
	cursor = q.Get("cursor")
	if s := q.Get("limit"); s != "" {
		limit, err = strconv.Atoi(s)
		if err != nil || limit < 1 {
			return 0, "", fmt.Errorf("bad limit %q", s)
		}
		if limit > maxPageLimit {
			limit = maxPageLimit
		}
	} else if cursor != "" {
		limit = defaultPageLimit
	}
	return limit, cursor, nil
}

// sinceParam parses ?since=. Zero means no filter.
func sinceParam(r *http.Request) (uint64, error) {
	s := r.URL.Query().Get("since")
	if s == "" {
		return 0, nil
	}
	n, err := parseBlockParam(s)
	if err != nil {
		return 0, fmt.Errorf("bad since %q", s)
	}
	return n, nil
}

// filterRowsSince keeps the dashboard rows whose contract logged
// anything at or after block since — one FilterLogs scan over every
// row address, resolved against a single head view.
func (a *App) filterRowsSince(rows []DashboardRow, since uint64) ([]DashboardRow, error) {
	if since == 0 || len(rows) == 0 {
		return rows, nil
	}
	addrs := make([]ethtypes.Address, len(rows))
	for i, row := range rows {
		addrs[i] = ethtypes.HexToAddress(row.Address)
	}
	logs, err := a.Manager.Client.Backend().FilterLogs(chain.FilterQuery{
		FromBlock: since,
		Addresses: addrs,
	})
	if err != nil {
		return nil, err
	}
	active := make(map[string]bool, len(logs))
	for _, l := range logs {
		active[strings.ToLower(l.Address.Hex())] = true
	}
	kept := make([]DashboardRow, 0, len(rows))
	for _, row := range rows {
		if active[strings.ToLower(row.Address)] {
			kept = append(kept, row)
		}
	}
	return kept, nil
}

// pageContracts orders rows by address and applies cursor pagination.
// Returns the page and the nextCursor ("" when the listing is done).
func pageContracts(rows []DashboardRow, limit int, cursor string) ([]DashboardRow, string) {
	sort.Slice(rows, func(i, j int) bool {
		return strings.ToLower(rows[i].Address) < strings.ToLower(rows[j].Address)
	})
	if cursor != "" {
		c := strings.ToLower(cursor)
		i := sort.Search(len(rows), func(i int) bool {
			return strings.ToLower(rows[i].Address) > c
		})
		rows = rows[i:]
	}
	if limit == 0 || len(rows) <= limit {
		return rows, ""
	}
	page := rows[:limit]
	return page, page[len(page)-1].Address
}

// v1ContractPayments is the paginated cross-version payment list:
// GET /api/v1/contracts/{addr}/payments.
func (a *App) v1ContractPayments(w http.ResponseWriter, r *http.Request, u *User, addr ethtypes.Address) {
	if _, err := a.Manager.GetRow(addr); err != nil {
		writeV1Error(w, r, http.StatusNotFound, v1NotFound, err.Error())
		return
	}
	limit, cursor, err := pageParams(r)
	if err != nil {
		writeV1Error(w, r, http.StatusBadRequest, v1BadRequest, err.Error())
		return
	}
	since, err := sinceParam(r)
	if err != nil {
		writeV1Error(w, r, http.StatusBadRequest, v1BadRequest, err.Error())
		return
	}
	hist, err := a.Rental.RentHistory(u.Addr(), addr)
	if err != nil {
		writeV1Error(w, r, http.StatusBadRequest, v1BadRequest, err.Error())
		return
	}

	type payJSON struct {
		Version     int    `json:"version"`
		Month       uint64 `json:"month"`
		Amount      string `json:"amountWei"`
		TxHash      string `json:"txHash,omitempty"`
		BlockNumber uint64 `json:"blockNumber,omitempty"`
	}
	pays := make([]payJSON, 0, len(hist))
	for _, p := range hist {
		pj := payJSON{Version: p.Version, Month: p.Month, Amount: p.Amount.String(), BlockNumber: p.Block}
		if !p.TxHash.IsZero() {
			pj.TxHash = p.TxHash.Hex()
		}
		// since filters on the mined height; untraceable payments (no
		// tx hash) carry no height and are filtered out.
		if since > 0 && pj.BlockNumber < since {
			continue
		}
		pays = append(pays, pj)
	}

	// Cursor = offset into the (append-only) filtered history.
	start := 0
	if cursor != "" {
		start, err = strconv.Atoi(cursor)
		if err != nil || start < 0 {
			writeV1Error(w, r, http.StatusBadRequest, v1BadRequest, fmt.Sprintf("bad cursor %q", cursor))
			return
		}
		if start > len(pays) {
			start = len(pays)
		}
	}
	page := pays[start:]
	next := ""
	if limit > 0 && len(page) > limit {
		page = page[:limit]
		next = strconv.Itoa(start + limit)
	}
	out := map[string]interface{}{"payments": page, "total": len(pays), "head": coldHead(a.node.HeadView())}
	if next != "" {
		out["nextCursor"] = next
	}
	writeCold(w, http.StatusOK, out)
}
