package app

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"legalchain/internal/core"
	"legalchain/internal/ethtypes"
	"legalchain/internal/jsonwire"
	"legalchain/internal/obs"
	"legalchain/internal/upgrade"
)

// Versioned REST API for the contract manager, coexisting with the HTML
// UI. All endpoints require the session cookie and speak a uniform
// error envelope:
//
//	{"error":{"code":"bad_request","message":"..."}}
//
// Routes (net/http patterns, registered in apiV1Routes):
//
//	GET  /api/v1/me                          session user + balance
//	GET  /api/v1/contracts                   dashboard rows for the user
//	POST /api/v1/contracts                   deploy a rental agreement
//	GET  /api/v1/heads                       SSE head stream (sse.go)
//	GET  /api/v1/alerts                      watchtower alerts (watchapi.go)
//	GET  /api/v1/contracts/{addr}            row + live state + version chain + payments
//	POST /api/v1/contracts/{addr}/actions    lifecycle action (confirm, pay, ...)
//	GET  /api/v1/contracts/{addr}/events     SSE log stream (sse.go)
//	GET  /api/v1/contracts/{addr}/payments   paginated payments (paginate.go)
//	GET  /api/v1/contracts/{addr}/audit      full chain audit (code/ABI/layout/behaviour diffs)
//	GET  /api/v1/contracts/{addr}/timeline   watchtower timeline (watchapi.go)
//
// A malformed {addr} answers 400 "bad contract address"; any other path
// under /api/v1/ answers 404 not_found.

// Machine-readable error codes of the v1 envelope.
const (
	v1Unauthorized    = "unauthorized"
	v1NotFound        = "not_found"
	v1BadRequest      = "bad_request"
	v1TooLarge        = "body_too_large"
	v1NotAllowed      = "method_not_allowed"
	v1Internal        = "internal"
	v1UpgradeRejected = "upgrade_rejected"
	v1Superseded      = "superseded"
)

// writeV1Error emits the uniform v1 error envelope. The request ID the
// obs middleware assigned rides along, so a failing API response can be
// joined with the server log line and the trace it produced:
//
//	{"error":{"code":"bad_request","message":"...","requestId":"..."}}
func writeV1Error(w http.ResponseWriter, r *http.Request, status int, code, message string) {
	writeV1ErrorData(w, r, status, code, message, nil)
}

// writeV1ErrorData is writeV1Error with a structured data payload — the
// upgrade-rejection envelope carries the full verification report:
//
//	{"error":{"code":"upgrade_rejected","message":"...","data":{"report":{...}}}}
func writeV1ErrorData(w http.ResponseWriter, r *http.Request, status int, code, message string, data interface{}) {
	p := jsonwire.GetBuffer()
	jsonwire.PutBuffer(p, writeJSON(w, status, appendV1Error((*p)[:0], r, code, message, data)))
}

// appendV1Error writes the error envelope, with data when it is not nil
// and the request ID when r carries one.
func appendV1Error(b []byte, r *http.Request, code, message string, data interface{}) []byte {
	b = strMember(append(b, `{"error":{`...), "code", code)
	if data != nil {
		b = append(jsonwire.AppendKey(b, "data"), marshalCold(data)...)
	}
	b = strMember(b, "message", message)
	if r != nil {
		b = omitStr(b, "requestId", obs.RequestIDFrom(r.Context()))
	}
	return append(b, "}}"...)
}

// maxV1Body caps a /api/v1 JSON request body; the largest legitimate
// one is a deploy carrying its legal document as a string.
const maxV1Body = 1 << 20

// decodeV1Body decodes the request's JSON body into v without reading
// more than maxV1Body bytes of it. On failure it has answered — 413 for
// an over-size body, 400 for anything else — and returns false.
func decodeV1Body(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxV1Body)).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeV1Error(w, r, http.StatusRequestEntityTooLarge, v1TooLarge,
			fmt.Sprintf("JSON body exceeds %d bytes", tooLarge.Limit))
	} else {
		writeV1Error(w, r, http.StatusBadRequest, v1BadRequest, "bad JSON body: "+err.Error())
	}
	return false
}

// apiV1Routes registers the v1 patterns. A contract sub-resource names
// the one method it answers ("" leaves the check to the handler); any
// other path under /api/v1/ answers the 404 envelope.
func (a *App) apiV1Routes(handle func(pattern string, h http.HandlerFunc)) {
	handle("/api/v1/me", a.withUser(a.v1Me))
	handle("/api/v1/contracts", a.withUser(a.v1Contracts))
	handle("/api/v1/heads", a.withUser(a.v1Heads))
	handle("/api/v1/alerts", a.withUser(a.v1Alerts))
	contract := func(sub, method string, h func(http.ResponseWriter, *http.Request, *User, ethtypes.Address)) {
		handle("/api/v1/contracts/{addr}"+sub, a.withAddr(func(w http.ResponseWriter, r *http.Request, u *User, addr ethtypes.Address) {
			if method != "" && r.Method != method {
				writeV1Error(w, r, http.StatusMethodNotAllowed, v1NotAllowed, method+" only")
				return
			}
			h(w, r, u, addr)
		}))
	}
	contract("", http.MethodGet, a.v1ContractDetail)
	contract("/actions", http.MethodPost, a.v1ContractAction)
	contract("/events", "", a.v1ContractEvents)
	contract("/payments", http.MethodGet, a.v1ContractPayments)
	contract("/audit", http.MethodGet, a.v1ContractAudit)
	contract("/timeline", http.MethodGet, a.v1ContractTimeline)
	handle("/api/v1/contracts/{addr}/{sub}", a.withUser(func(w http.ResponseWriter, r *http.Request, u *User) {
		writeV1Error(w, r, http.StatusNotFound, v1NotFound, "unknown endpoint "+r.PathValue("sub"))
	}))
	handle("/api/v1/", a.withUser(func(w http.ResponseWriter, r *http.Request, u *User) {
		writeV1Error(w, r, http.StatusNotFound, v1NotFound, "unknown endpoint "+r.URL.Path)
	}))
}

func (a *App) v1Me(w http.ResponseWriter, r *http.Request, u *User) {
	if r.Method != http.MethodGet {
		writeV1Error(w, r, http.StatusMethodNotAllowed, v1NotAllowed, "GET only")
		return
	}
	// The balance and the reported head describe one head view.
	v := a.node.HeadView()
	bal := v.GetBalance(u.Addr())
	writeCold(w, http.StatusOK, map[string]interface{}{
		"name":       u.Name,
		"email":      u.Email,
		"address":    u.Address,
		"head":       coldHead(v),
		"balanceWei": bal.String(),
		"balanceEth": ethtypes.FormatEther(bal),
	})
}

func (a *App) v1Contracts(w http.ResponseWriter, r *http.Request, u *User) {
	switch r.Method {
	case http.MethodGet:
		limit, cursor, perr := pageParams(r)
		if perr != nil {
			writeV1Error(w, r, http.StatusBadRequest, v1BadRequest, perr.Error())
			return
		}
		since, perr := sinceParam(r)
		if perr != nil {
			writeV1Error(w, r, http.StatusBadRequest, v1BadRequest, perr.Error())
			return
		}
		rows, err := a.Dashboard(u)
		if err != nil {
			writeV1Error(w, r, http.StatusInternalServerError, v1Internal, err.Error())
			return
		}
		rows, err = a.filterRowsSince(rows, since)
		if err != nil {
			writeV1Error(w, r, http.StatusInternalServerError, v1Internal, err.Error())
			return
		}
		page, next := pageContracts(rows, limit, cursor)
		out := map[string]interface{}{"contracts": page}
		if next != "" {
			out["nextCursor"] = next
		}
		writeCold(w, http.StatusOK, out)

	case http.MethodPost:
		var body struct {
			Artifact string `json:"artifact"`
			termsInput
		}
		if !decodeV1Body(w, r, &body) {
			return
		}
		dep, err := a.deployAgreement(u, body.Artifact, body.termsInput)
		if err != nil {
			writeV1Error(w, r, http.StatusBadRequest, v1BadRequest, err.Error())
			return
		}
		row, _ := a.Manager.Describe(dep.Row, nil)
		writeCold(w, http.StatusCreated, map[string]interface{}{
			"address": dep.Row.Address,
			"gasUsed": dep.GasUsed,
			"row":     row,
		})

	default:
		writeV1Error(w, r, http.StatusMethodNotAllowed, v1NotAllowed, "GET or POST only")
	}
}

// v1ContractDetail is the one-stop read: registry row, live chain
// state, the walked version chain with its verification verdict, and
// the cross-version payment history. Its members are written in sorted
// order.
func (a *App) v1ContractDetail(w http.ResponseWriter, r *http.Request, u *User, addr ethtypes.Address) {
	row, err := a.Manager.GetRow(addr)
	if err != nil {
		writeV1Error(w, r, http.StatusNotFound, v1NotFound, err.Error())
		return
	}
	line, walkErr := a.Manager.WalkStates(addr)
	row, _ = a.Manager.Describe(row, line)
	p := jsonwire.GetBuffer()
	b := appendHead(jsonwire.AppendKey(append((*p)[:0], '{'), "head"), a.node.HeadView())
	// live is the version's public fields, read from storage; a version
	// with no published layout has none, and shows no live map.
	if layout, err := a.Manager.ResolveLayout(addr); err == nil && layout != nil {
		b = a.appendLive(jsonwire.AppendKey(b, "live"), addr)
	}
	if walkErr == nil {
		if hist, err := a.Rental.RentHistoryOf(line); err == nil {
			b = jsonwire.AppendList(jsonwire.AppendKey(b, "payments"), hist, appendPayment)
		}
	}
	if rej, err := a.Manager.Rejections(u.Addr(), addr); err == nil && len(rej) > 0 {
		b = append(jsonwire.AppendKey(b, "rejections"), marshalCold(rej)...)
	}
	b = appendRow(jsonwire.AppendKey(b, "row"), row)
	if walkErr == nil {
		b = strconv.AppendBool(jsonwire.AppendKey(b, "verified"), core.VerifyChain(line) == nil)
		b = jsonwire.AppendList(jsonwire.AppendKey(b, "versions"), line, appendVersion)
	}
	jsonwire.PutBuffer(p, writeJSON(w, http.StatusOK, append(b, '}')))
}

// v1ContractAudit renders the full chain audit of the version line
// containing addr: per-version code and artifacts, pairwise bytecode /
// ABI / layout / behaviour diffs, and any recorded upgrade rejections.
func (a *App) v1ContractAudit(w http.ResponseWriter, r *http.Request, u *User, addr ethtypes.Address) {
	if _, err := a.Manager.GetRow(addr); err != nil {
		writeV1Error(w, r, http.StatusNotFound, v1NotFound, err.Error())
		return
	}
	report, err := a.Manager.AuditChain(u.Addr(), addr)
	if err != nil {
		writeV1Error(w, r, http.StatusInternalServerError, v1Internal, err.Error())
		return
	}
	writeCold(w, http.StatusOK, map[string]interface{}{"audit": report, "head": coldHead(a.node.HeadView())})
}

// v1ContractAction executes one lifecycle step. The action names match
// the HTML form routes; "modify" deploys a new linked version and
// returns its row.
func (a *App) v1ContractAction(w http.ResponseWriter, r *http.Request, u *User, addr ethtypes.Address) {
	if _, err := a.Manager.GetRow(addr); err != nil {
		writeV1Error(w, r, http.StatusNotFound, v1NotFound, err.Error())
		return
	}
	var body struct {
		Action string      `json:"action"`
		Terms  *termsInput `json:"terms"`
	}
	if !decodeV1Body(w, r, &body) {
		return
	}
	rcpt, dep, err := a.contractAction(r.Context(), u, addr, body.Action, body.Terms)
	if err != nil {
		var rej *upgrade.RejectionError
		if errors.As(err, &rej) {
			writeV1ErrorData(w, r, http.StatusUnprocessableEntity, v1UpgradeRejected,
				rej.Error(), map[string]interface{}{"report": rej.Report})
			return
		}
		if errors.Is(err, core.ErrSuperseded) {
			writeV1Error(w, r, http.StatusConflict, v1Superseded, err.Error())
			return
		}
		writeV1Error(w, r, http.StatusBadRequest, v1BadRequest, err.Error())
		return
	}
	result := map[string]interface{}{"action": body.Action, "status": "ok"}
	if rcpt != nil {
		result["txHash"] = rcpt.TxHash.Hex()
	}
	if dep != nil {
		result["newVersion"], _ = a.Manager.Describe(dep.Row, nil)
	}
	writeCold(w, http.StatusOK, result)
}
