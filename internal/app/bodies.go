package app

import (
	"encoding/json"
	"net/http"
	"strconv"

	"legalchain/internal/chain"
	"legalchain/internal/core"
	"legalchain/internal/ethtypes"
	"legalchain/internal/jsonwire"
	"legalchain/internal/watch"
)

// The /api/v1 bodies a dashboard reads most — the contract detail, the
// timeline and the error envelope — are written by internal/jsonwire's
// appender into pooled buffers, as the bytes encoding/json wrote from
// the maps and structs they replaced: map keys sorted, struct members in
// declared order, omitempty members left out, and a trailing newline.
// Those map builders are the oracle, in bodies_test.go. The cold bodies
// (the contract list, me, audit, actions, payments and alerts) and the
// members whose type is decided elsewhere (rejection reports, error
// data) stay on encoding/json, through marshalCold.

// writeJSON answers status with the JSON document b and a newline. It
// returns b as written, for jsonwire.PutBuffer.
func writeJSON(w http.ResponseWriter, status int, b []byte) []byte {
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
	return b
}

// writeCold answers status with v as encoding/json writes it.
func writeCold(w http.ResponseWriter, status int, v interface{}) {
	writeJSON(w, status, marshalCold(v))
}

// marshalCold writes v with encoding/json: a cold body, or a member of
// a hot one whose type is decided elsewhere. A value encoding/json
// refuses is written null.
func marshalCold(v interface{}) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		return []byte("null")
	}
	return raw
}

// appendHead writes the head member of every body that carries one: the
// head view the response is served from, so API consumers can
// correlate reads across endpoints.
func appendHead(b []byte, v *chain.HeadView) []byte {
	hash, root := v.Head().Hash(), v.StateRoot()
	b = jsonwire.AppendHex(jsonwire.AppendKey(append(b, '{'), "hash"), hash[:])
	b = uintMember(b, "number", v.BlockNumber())
	return append(jsonwire.AppendHex(jsonwire.AppendKey(b, "stateRoot"), root[:]), '}')
}

// coldHead is the head member of a cold body's map.
func coldHead(v *chain.HeadView) json.RawMessage { return appendHead(nil, v) }

// The member writers write a key and its value; the omit forms write
// nothing for a zero value, as omitempty did.
func strMember(b []byte, key, s string) []byte {
	return jsonwire.AppendString(jsonwire.AppendKey(b, key), s)
}

func uintMember(b []byte, key string, n uint64) []byte {
	return strconv.AppendUint(jsonwire.AppendKey(b, key), n, 10)
}

func omitStr(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return strMember(b, key, s)
}

func omitUint(b []byte, key string, n uint64) []byte {
	if n == 0 {
		return b
	}
	return uintMember(b, key, n)
}

// appendRow writes a registry row.
func appendRow(b []byte, row core.ContractRow) []byte {
	b = strMember(append(b, '{'), "address", row.Address)
	b = strMember(b, "name", row.Name)
	b = strMember(b, "landlord", row.Landlord)
	b = omitStr(b, "tenant", row.Tenant)
	b = uintMember(b, "version", uint64(row.Version))
	b = omitStr(b, "state", row.State)
	b = strMember(b, "abiCid", row.ABICID)
	b = omitStr(b, "layoutCid", row.LayoutCID)
	b = omitStr(b, "documentCid", row.DocumentCID)
	b = omitStr(b, "prev", row.Prev)
	return append(omitStr(b, "next", row.Next), '}')
}

// appendVersion writes one version of a walked line.
func appendVersion(b []byte, n core.VersionInfo) []byte {
	b = jsonwire.AppendHex(jsonwire.AppendKey(append(b, '{'), "address"), n.Address[:])
	b = uintMember(b, "version", uint64(n.Version))
	b = strMember(b, "state", n.State)
	if !n.Prev.IsZero() {
		b = jsonwire.AppendHex(jsonwire.AppendKey(b, "prev"), n.Prev[:])
	}
	if !n.Next.IsZero() {
		b = jsonwire.AppendHex(jsonwire.AppendKey(b, "next"), n.Next[:])
	}
	return append(b, '}')
}

// appendPayment writes one payment of the rent history. A traceable
// payment carries a ready-to-send JSON-RPC invocation that replays it
// with the callTracer attached.
func appendPayment(b []byte, p core.PaymentRecord) []byte {
	b = uintMember(append(b, '{'), "version", uint64(p.Version))
	b = uintMember(b, "month", p.Month)
	b = jsonwire.AppendDecimal(jsonwire.AppendKey(b, "amountWei"), p.Amount)
	if !p.TxHash.IsZero() {
		b = jsonwire.AppendHex(jsonwire.AppendKey(b, "txHash"), p.TxHash[:])
		b = append(b, `,"trace":{"method":"debug_traceTransaction","params":[`...)
		b = append(jsonwire.AppendHex(b, p.TxHash[:]), `,{"tracer":"callTracer"}]}`...)
	}
	return append(b, '}')
}

// appendLive writes a version's public fields, read from storage, in
// sorted order; a field the version does not have is left out.
func (a *App) appendLive(b []byte, addr ethtypes.Address) []byte {
	b = append(b, '{')
	for _, name := range [...]string{"deposit", "house", "monthCounter", "rent", "state"} {
		if name == "house" {
			if house, err := a.Manager.FieldString(addr, name); err == nil {
				b = strMember(b, name, house)
			}
		} else if v, err := a.Manager.FieldUint(addr, name); err == nil {
			b = jsonwire.AppendDecimal(jsonwire.AppendKey(b, name), v)
		}
	}
	return append(b, '}')
}

// appendTimeline writes a contract's timeline body: its events, its
// status when the tower tracks it (c is not nil), and the head.
func appendTimeline(b []byte, addr ethtypes.Address, events []watch.Event, c *watch.ContractStatus, head *chain.HeadView) []byte {
	b = jsonwire.AppendHex(jsonwire.AppendKey(append(b, '{'), "address"), addr[:])
	if c != nil {
		b = appendStatus(jsonwire.AppendKey(b, "contract"), c)
	}
	b = jsonwire.AppendKey(uintMember(b, "count", uint64(len(events))), "events")
	if events == nil {
		b = append(b, "null"...)
	} else {
		b = jsonwire.AppendList(b, events, appendEvent)
	}
	b = appendHead(jsonwire.AppendKey(b, "head"), head)
	return append(b, '}')
}

// appendEvent writes a watch.Event.
func appendEvent(b []byte, ev watch.Event) []byte {
	b = uintMember(append(b, '{'), "seq", ev.Seq)
	b = uintMember(b, "block", ev.Block)
	b = omitUint(b, "time", ev.Time)
	b = strMember(b, "type", ev.Type)
	b = omitStr(b, "contract", ev.Contract)
	b = omitStr(b, "template", ev.Template)
	b = omitStr(b, "state", ev.State)
	b = omitStr(b, "txHash", ev.TxHash)
	b = omitStr(b, "rentWei", ev.RentWei)
	b = omitStr(b, "depositWei", ev.DepositWei)
	b = omitUint(b, "months", ev.Months)
	b = omitUint(b, "month", ev.Month)
	b = omitStr(b, "amountWei", ev.AmountWei)
	b = omitStr(b, "rule", ev.Rule)
	if ev.Value != 0 {
		b = jsonwire.AppendFloat(jsonwire.AppendKey(b, "value"), ev.Value)
	}
	b = omitStr(b, "detail", ev.Detail)
	if len(ev.Contracts) > 0 {
		b = jsonwire.AppendList(jsonwire.AppendKey(b, "contracts"), ev.Contracts, jsonwire.AppendString)
	}
	return append(b, '}')
}

// appendStatus writes a watch.ContractStatus.
func appendStatus(b []byte, c *watch.ContractStatus) []byte {
	b = strMember(append(b, '{'), "address", c.Address)
	b = strMember(b, "template", c.Template)
	b = strMember(b, "state", c.State)
	b = uintMember(b, "monthsPaid", c.MonthsPaid)
	b = uintMember(b, "months", c.Months)
	b = omitStr(b, "rentWei", c.RentWei)
	b = omitStr(b, "depositWei", c.DepositWei)
	b = strconv.AppendBool(jsonwire.AppendKey(b, "overdue"), c.Overdue)
	if len(c.Obligations) > 0 {
		b = jsonwire.AppendList(jsonwire.AppendKey(b, "obligations"), c.Obligations, appendObligation)
	}
	return append(b, '}')
}

// appendObligation writes a watch.Obligation.
func appendObligation(b []byte, o watch.Obligation) []byte {
	b = strMember(append(b, '{'), "contract", o.Contract)
	b = strMember(b, "kind", o.Kind)
	b = uintMember(b, "dueBlock", o.DueBlock)
	b = strconv.AppendBool(jsonwire.AppendKey(b, "overdue"), o.Overdue)
	b = omitUint(b, "overdueBy", o.OverdueBy)
	return append(omitStr(b, "detail", o.Detail), '}')
}
