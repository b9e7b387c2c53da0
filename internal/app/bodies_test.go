package app

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"

	"legalchain/internal/contracts"
	"legalchain/internal/core"
	"legalchain/internal/ethtypes"
	"legalchain/internal/minisol"
	"legalchain/internal/obs"
	"legalchain/internal/upgrade"
	"legalchain/internal/watch"
	"legalchain/internal/web3"
)

// The map builders below are the /api/v1 bodies as encoding/json wrote
// them from maps and structs. They read the app's state the way the
// handlers do, so a body the server wrote must be the same bytes as
// json.NewEncoder of what they build.

// v1HeadMap is the head member.
func v1HeadMap(a *App) map[string]interface{} {
	hv, ok := a.Manager.Client.Backend().(web3.HeadViewer)
	if !ok {
		return nil
	}
	v := hv.HeadView()
	return map[string]interface{}{
		"number":    v.BlockNumber(),
		"hash":      v.Head().Hash().Hex(),
		"stateRoot": v.StateRoot().Hex(),
	}
}

// v1DetailMap is GET /api/v1/contracts/{addr} for viewer u.
func v1DetailMap(a *App, u *User, addr ethtypes.Address) map[string]interface{} {
	row, err := a.Manager.GetRow(addr)
	if err != nil {
		return v1ErrorMap(nil, v1NotFound, err.Error(), nil)
	}
	line, walkErr := a.Manager.WalkStates(addr)
	row, _ = a.Manager.Describe(row, line)
	out := map[string]interface{}{"row": row}
	if head := v1HeadMap(a); head != nil {
		out["head"] = head
	}
	if layout, err := a.Manager.ResolveLayout(addr); err == nil && layout != nil {
		live := map[string]string{}
		for _, name := range []string{"rent", "deposit", "state", "monthCounter"} {
			if v, err := a.Manager.FieldUint(addr, name); err == nil {
				live[name] = v.String()
			}
		}
		if house, err := a.Manager.FieldString(addr, "house"); err == nil {
			live["house"] = house
		}
		out["live"] = live
	}
	if rej, err := a.Manager.Rejections(u.Addr(), addr); err == nil && len(rej) > 0 {
		out["rejections"] = rej
	}
	if walkErr == nil {
		type nodeJSON struct {
			Address string `json:"address"`
			Version int    `json:"version"`
			State   string `json:"state"`
			Prev    string `json:"prev,omitempty"`
			Next    string `json:"next,omitempty"`
		}
		nodes := make([]nodeJSON, len(line))
		for i, n := range line {
			nodes[i] = nodeJSON{Address: n.Address.Hex(), Version: n.Version, State: n.State}
			if !n.Prev.IsZero() {
				nodes[i].Prev = n.Prev.Hex()
			}
			if !n.Next.IsZero() {
				nodes[i].Next = n.Next.Hex()
			}
		}
		out["versions"] = nodes
		out["verified"] = core.VerifyChain(line) == nil
		if hist, err := a.Rental.RentHistoryOf(line); err == nil {
			type payJSON struct {
				Version int         `json:"version"`
				Month   uint64      `json:"month"`
				Amount  string      `json:"amountWei"`
				TxHash  string      `json:"txHash,omitempty"`
				Trace   interface{} `json:"trace,omitempty"`
			}
			pays := make([]payJSON, len(hist))
			for i, p := range hist {
				pays[i] = payJSON{Version: p.Version, Month: p.Month, Amount: p.Amount.String()}
				if !p.TxHash.IsZero() {
					pays[i].TxHash = p.TxHash.Hex()
					pays[i].Trace = map[string]interface{}{
						"method": "debug_traceTransaction",
						"params": []interface{}{p.TxHash.Hex(), map[string]string{"tracer": "callTracer"}},
					}
				}
			}
			out["payments"] = pays
		}
	}
	return out
}

// v1TimelineMap is GET /api/v1/contracts/{addr}/timeline.
func v1TimelineMap(a *App, addr ethtypes.Address) map[string]interface{} {
	a.Watch.Sync()
	events, c, tracked := a.Watch.ContractTimeline(addr)
	if !tracked {
		return timelineMap(addr, events, nil, v1HeadMap(a))
	}
	return timelineMap(addr, events, &c, v1HeadMap(a))
}

// timelineMap is the timeline body of events, status c (nil when the
// tower does not track the contract) and head.
func timelineMap(addr ethtypes.Address, events []watch.Event, c *watch.ContractStatus, head map[string]interface{}) map[string]interface{} {
	out := map[string]interface{}{
		"address": addr.Hex(),
		"events":  events,
		"count":   len(events),
	}
	if c != nil {
		out["contract"] = c
	}
	if head != nil {
		out["head"] = head
	}
	return out
}

// v1ErrorMap is the error envelope.
func v1ErrorMap(r *http.Request, code, message string, data interface{}) map[string]interface{} {
	e := map[string]interface{}{"code": code, "message": message}
	if r != nil {
		if rid := obs.RequestIDFrom(r.Context()); rid != "" {
			e["requestId"] = rid
		}
	}
	if data != nil {
		e["data"] = data
	}
	return map[string]interface{}{"error": e}
}

// encodeOracle writes v as the handlers' json.NewEncoder did.
func encodeOracle(t *testing.T, v interface{}) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// sameBody fails the test unless the server's body is the oracle's.
func sameBody(t *testing.T, name, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s: body\n%s\nencoding/json\n%s", name, got, want)
	}
}

// TestV1BodiesMatchEncodingJSON pins every /api/v1 body the server
// writes to the bytes encoding/json wrote from the map builders above:
// the contract detail on a paid 3-version line, on a raw upload with no
// layout, and with recorded rejections; the timeline of an agreement
// holding an alert and an overdue obligation; and the error envelope
// with and without a request id and data.
func TestV1BodiesMatchEncodingJSON(t *testing.T) {
	a, tw := watchRig(t, "missed-rent: overdue > 0 for 2 blocks", 2)
	landlord, _, addr := apiRigOn(t, a)
	var u User
	if err := a.Manager.Store.Get(TableUsers, "api_landlord", &u); err != nil {
		t.Fatal(err)
	}
	contract := ethtypes.HexToAddress(addr)
	owner := ethtypes.HexToAddress(u.Address)

	// A refused modification records a rejection on v1.
	shrunk, err := minisol.CompileContract(shrunkSrc, "Shrunk")
	if err != nil {
		t.Fatal(err)
	}
	var rej *upgrade.RejectionError
	if _, err := a.Manager.ModifyContract(owner, contract, shrunk, core.ModifyOptions{}, ethtypes.Ether(1)); !errors.As(err, &rej) {
		t.Fatalf("modify to Shrunk: %v, want a rejection", err)
	}
	line := paidLine(t, a, contract)

	// A raw upload: ABI and bytecode, no layout.
	base := contracts.MustArtifact("BaseRental")
	if _, err := a.UploadArtifact(&u, "rawrental", string(base.ABIJSON), "0x"+hexOf(base.Bytecode)); err != nil {
		t.Fatal(err)
	}
	resp, body := landlord.post("/deploy", url.Values{
		"artifact": {"rawrental"}, "rent": {"1"}, "deposit": {"2"},
		"months": {"12"}, "house": {"raw-house"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy: %d %s", resp.StatusCode, body)
	}
	var raw ethtypes.Address
	for _, row := range a.Manager.Rows() {
		if row.Name == "rawrental" {
			raw = ethtypes.HexToAddress(row.Address)
		}
	}

	// An agreement whose tenant goes silent: an overdue obligation, then
	// an alert on its timeline.
	tenant, err := a.Register("silent_tenant", "", "pw")
	if err != nil {
		t.Fatal(err)
	}
	silent, err := a.Rental.DeployRental(owner, core.RentalTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12, House: "Berlin <42> & \u2028 \xff",
	})
	if err != nil {
		t.Fatal(err)
	}
	silentAddr := silent.Contract.Address
	if err := a.Rental.Confirm(tenant.Addr(), silentAddr); err != nil {
		t.Fatal(err)
	}
	bc := appChain(t, a)
	for i := 0; i < 5; i++ {
		bc.MineBlock()
	}
	tw.Sync()
	// The rule fires once while any agreement is overdue, so the alert
	// lands on whichever agreements were overdue first.
	var alerted ethtypes.Address
	for _, c := range append([]ethtypes.Address{silentAddr}, line...) {
		events, status, _ := tw.ContractTimeline(c)
		if hasAlert(events) && len(status.Obligations) > 0 {
			alerted = c
		}
	}
	if alerted.IsZero() {
		t.Fatal("no agreement holds both an alert and an obligation")
	}

	for i, v := range append(line, silentAddr) {
		_, body := landlord.get("/api/v1/contracts/" + v.Hex())
		sameBody(t, "detail "+string(rune('1'+i)), body, encodeOracle(t, v1DetailMap(a, &u, v)))
	}
	if d := v1DetailMap(a, &u, contract); d["rejections"] == nil || d["payments"] == nil || d["live"] == nil {
		t.Fatalf("v1 detail lacks rejections, payments or live: %v", d)
	}
	_, body = landlord.get("/api/v1/contracts/" + raw.Hex())
	if d := v1DetailMap(a, &u, raw); d["live"] != nil {
		t.Fatalf("raw upload shows live: %v", d["live"])
	}
	sameBody(t, "detail raw", body, encodeOracle(t, v1DetailMap(a, &u, raw)))

	for _, target := range []ethtypes.Address{alerted, silentAddr, contract, owner} {
		_, body := landlord.get("/api/v1/contracts/" + target.Hex() + "/timeline")
		sameBody(t, "timeline "+target.Hex(), body, encodeOracle(t, v1TimelineMap(a, target)))
	}

	withID := httptest.NewRequest(http.MethodGet, "/", nil)
	withID = withID.WithContext(obs.WithRequestID(context.Background(), "req-<1>"))
	report := map[string]interface{}{"report": rej.Report}
	for _, c := range []struct {
		name string
		r    *http.Request
		data interface{}
	}{
		{"bare", nil, nil},
		{"requestId", withID, nil},
		{"data", nil, report},
		{"requestId and data", withID, report},
		{"no id in context", httptest.NewRequest(http.MethodGet, "/", nil), "a\u2029string"},
	} {
		rec := httptest.NewRecorder()
		msg := "bad \"thing\" <script>&\x01\xff"
		writeV1ErrorData(rec, c.r, http.StatusUnprocessableEntity, v1UpgradeRejected, msg, c.data)
		if rec.Code != http.StatusUnprocessableEntity || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("error %s: status %d, content type %q", c.name, rec.Code, rec.Header().Get("Content-Type"))
		}
		sameBody(t, "error "+c.name, rec.Body.String(), encodeOracle(t, v1ErrorMap(c.r, v1UpgradeRejected, msg, c.data)))
	}
}

func hasAlert(events []watch.Event) bool {
	for _, ev := range events {
		if ev.Type == "alert" {
			return true
		}
	}
	return false
}

// TestTimelineWriterMatchesEncodingJSON writes timelines the tower does
// not make on its own, alert values that are not integers among them,
// through appendTimeline and through the map builder and encoding/json.
func TestTimelineWriterMatchesEncodingJSON(t *testing.T) {
	a := rig(t)
	head := a.node.HeadView()
	addr := ethtypes.Address{0xab, 0xcd}
	var full watch.Event
	fillAll(reflect.ValueOf(&full).Elem(), 1)
	var status watch.ContractStatus
	fillAll(reflect.ValueOf(&status).Elem(), 2)
	for _, value := range []float64{0.5, 1.25, 1e-7, 9.99e-7, 1e-6, 1e21, 1e20, 123.456, -2.5, math.Copysign(0, -1), 0, 3} {
		alert := watch.Event{Seq: 9, Block: 40, Type: "alert", Rule: "r", Value: value, Detail: "x", Contracts: []string{addr.Hex()}}
		for _, c := range []*watch.ContractStatus{nil, {Address: addr.Hex(), State: "active"}, &status} {
			events := []watch.Event{{Seq: 1, Type: "created"}, alert, full}
			got := string(appendTimeline(nil, addr, events, c, head)) + "\n"
			sameBody(t, fmt.Sprintf("timeline value %g", value), got, encodeOracle(t, timelineMap(addr, events, c, v1HeadMap(a))))
		}
	}
	for _, events := range [][]watch.Event{nil, {}} {
		got := string(appendTimeline(nil, addr, events, nil, head)) + "\n"
		sameBody(t, fmt.Sprintf("timeline of %#v", events), got, encodeOracle(t, timelineMap(addr, events, nil, v1HeadMap(a))))
	}
}

// TestShapeWritersCoverEveryField writes each struct a hot body holds,
// once with every field set and once with none, and wants json.Marshal's
// bytes: a field added to one of them fails here until its writer
// writes it.
func TestShapeWritersCoverEveryField(t *testing.T) {
	for seed := 0; seed < 3; seed++ {
		var ev watch.Event
		var c watch.ContractStatus
		var row core.ContractRow
		if seed > 0 {
			fillAll(reflect.ValueOf(&ev).Elem(), seed)
			fillAll(reflect.ValueOf(&c).Elem(), seed)
			fillAll(reflect.ValueOf(&row).Elem(), seed)
		}
		for _, w := range []struct {
			name string
			got  []byte
			v    interface{}
		}{
			{"event", appendEvent(nil, ev), ev},
			{"status", appendStatus(nil, &c), c},
			{"row", appendRow(nil, row), row},
		} {
			want, err := json.Marshal(w.v)
			if err != nil {
				t.Fatal(err)
			}
			sameBody(t, fmt.Sprintf("%s, seed %d", w.name, seed), string(w.got), string(want))
		}
	}
}

// fillAll sets every field of v, a struct, to a value that is not its
// zero: strings that need escaping, numbers from seed, slices of two.
func fillAll(v reflect.Value, seed int) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d <&> \u2028 \xff \"q\"", seed))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(seed) * 7)
	case reflect.Uint64:
		v.SetUint(uint64(seed) * 1e18)
	case reflect.Float64:
		v.SetFloat(float64(seed) / 3)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fillAll(v.Index(i), seed+i)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillAll(v.Field(i), seed+i)
		}
	default:
		panic("fillAll: no value for a " + v.Kind().String())
	}
}
