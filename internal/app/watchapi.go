package app

import (
	"net/http"
	"strconv"

	"legalchain/internal/ethtypes"
	"legalchain/internal/jsonwire"
)

// Watchtower read endpoints: the REST face of internal/watch.
//
//	GET /api/v1/contracts/{addr}/timeline   the contract's lifecycle story
//	GET /api/v1/alerts[?since=<seq>]        alert history + rule states
//
// Both fold the tower to the current head before answering, so a client
// that just transacted reads its own write. When the node runs without
// a watchtower the endpoints answer 404 with the usual error envelope.

// v1ContractTimeline serves the folded lifecycle of one contract:
// every event the watchtower recorded for it — creation, signing,
// payments, modification linking, termination — plus the alerts that
// implicated it, oldest first, with its current state and outstanding
// obligations.
func (a *App) v1ContractTimeline(w http.ResponseWriter, r *http.Request, u *User, addr ethtypes.Address) {
	if a.Watch == nil {
		writeV1Error(w, r, http.StatusNotFound, v1NotFound, "watchtower not enabled on this node")
		return
	}
	a.Watch.Sync()
	events, c, tracked := a.Watch.ContractTimeline(addr)
	status := &c
	if !tracked {
		status = nil
	}
	p := jsonwire.GetBuffer()
	b := appendTimeline((*p)[:0], addr, events, status, a.node.HeadView())
	jsonwire.PutBuffer(p, writeJSON(w, http.StatusOK, b))
}

// v1Alerts serves the alert history and the live rule states.
// ?since=<seq> narrows to alerts after that sequence number — the
// polling analogue of the event:alert SSE frames.
func (a *App) v1Alerts(w http.ResponseWriter, r *http.Request, u *User) {
	if r.Method != http.MethodGet {
		writeV1Error(w, r, http.StatusMethodNotAllowed, v1NotAllowed, "GET only")
		return
	}
	if a.Watch == nil {
		writeV1Error(w, r, http.StatusNotFound, v1NotFound, "watchtower not enabled on this node")
		return
	}
	a.Watch.Sync()
	var since uint64
	if s := r.URL.Query().Get("since"); s != "" {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			writeV1Error(w, r, http.StatusBadRequest, v1BadRequest, "bad since parameter")
			return
		}
		since = n
	}
	alerts := a.Watch.AlertsSince(since)
	st := a.Watch.Summary()
	writeCold(w, http.StatusOK, map[string]interface{}{
		"alerts": alerts,
		"count":  len(alerts),
		"firing": st.AlertsFiring,
		"total":  st.AlertsTotal,
		"rules":  st.Rules,
	})
}
