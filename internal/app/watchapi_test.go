package app

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"legalchain/internal/core"
	"legalchain/internal/ethtypes"
	"legalchain/internal/watch"
)

// meAddr resolves the browser's chain address through /api/v1/me.
func meAddr(t *testing.T, b *browser) ethtypes.Address {
	t.Helper()
	resp, body := b.get("/api/v1/me")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("me: %d %s", resp.StatusCode, body)
	}
	var me struct {
		Address string `json:"address"`
	}
	if err := json.Unmarshal([]byte(body), &me); err != nil {
		t.Fatal(err)
	}
	return ethtypes.HexToAddress(me.Address)
}

// watchRig attaches a watchtower to the standard app rig.
func watchRig(t *testing.T, rules string, rentPeriod uint64) (*App, *watch.Tower) {
	t.Helper()
	a := rig(t)
	var parsed []watch.Rule
	if rules != "" {
		var err error
		parsed, err = watch.ParseRules(rules)
		if err != nil {
			t.Fatal(err)
		}
	}
	tw, err := watch.New(appChain(t, a), watch.Config{RentPeriod: rentPeriod, Rules: parsed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tw.Close() })
	a.Watch = tw
	return a, tw
}

func TestV1Timeline(t *testing.T) {
	a, _ := watchRig(t, "", 0)
	srv := httptest.NewServer(a.Handler())
	t.Cleanup(srv.Close)
	b := newBrowser(t, srv)
	b.register("landlady", "pw")
	b2 := newBrowser(t, srv)
	b2.register("tenant", "pw")

	landlady, tenant := meAddr(t, b), meAddr(t, b2)

	dep, err := a.Rental.DeployRental(landlady, core.RentalTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12, House: "Berlin-42",
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := dep.Row.Address
	if err := a.Rental.Confirm(tenant, ethtypes.HexToAddress(addr)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Rental.PayRent(tenant, ethtypes.HexToAddress(addr)); err != nil {
		t.Fatal(err)
	}

	resp, body := b.get("/api/v1/contracts/" + addr + "/timeline")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeline: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Address  string                `json:"address"`
		Count    int                   `json:"count"`
		Events   []watch.Event         `json:"events"`
		Contract *watch.ContractStatus `json:"contract"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 3 || len(out.Events) != 3 {
		t.Fatalf("timeline count %d: %s", out.Count, body)
	}
	for i, want := range []string{"created", "signed", "payment"} {
		if out.Events[i].Type != want {
			t.Fatalf("event %d = %q, want %q", i, out.Events[i].Type, want)
		}
	}
	if out.Contract == nil || out.Contract.State != watch.StateActive || out.Contract.MonthsPaid != 1 {
		t.Fatalf("contract summary: %+v", out.Contract)
	}

	// An address the tower does not track has an empty timeline and no
	// "contract" key.
	resp, body = b.get("/api/v1/contracts/" + landlady.Hex() + "/timeline")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("untracked timeline: %d %s", resp.StatusCode, body)
	}
	var untracked map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &untracked); err != nil {
		t.Fatal(err)
	}
	if _, ok := untracked["contract"]; ok || string(untracked["count"]) != "0" {
		t.Fatalf("untracked timeline: %s", body)
	}

	// Unknown sub-routes keep 404ing.
	resp, _ = b.get("/api/v1/contracts/" + addr + "/nonsense")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("nonsense route: %d", resp.StatusCode)
	}
}

func TestV1TimelineWithoutTower(t *testing.T) {
	a := rig(t)
	srv := httptest.NewServer(a.Handler())
	t.Cleanup(srv.Close)
	b := newBrowser(t, srv)
	b.register("nobody", "pw")
	resp, body := b.get("/api/v1/contracts/0x0000000000000000000000000000000000000001/timeline")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("no tower: %d %s", resp.StatusCode, body)
	}
	resp, _ = b.get("/api/v1/alerts")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("no tower alerts: %d", resp.StatusCode)
	}
}

// TestV1AlertsAndSSE drives the acceptance scenario through the HTTP
// surface: a missed rent payment fires `overdue > 0 for 2 blocks`
// exactly once, and the firing shows up in /api/v1/alerts, in the
// contract's timeline, and as an event:alert frame on the head stream.
func TestV1AlertsAndSSE(t *testing.T) {
	a, tw := watchRig(t, "missed-rent: overdue > 0 for 2 blocks", 2)
	srv := httptest.NewServer(a.Handler())
	t.Cleanup(srv.Close)
	b := newBrowser(t, srv)
	b.register("landlady", "pw")
	b2 := newBrowser(t, srv)
	b2.register("tenant", "pw")
	landlady, tenant := meAddr(t, b), meAddr(t, b2)
	bc := appChain(t, a)

	dep, err := a.Rental.DeployRental(landlady, core.RentalTerms{
		Rent: ethtypes.Ether(1), Deposit: ethtypes.Ether(2), Months: 12, House: "Berlin-42",
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := ethtypes.HexToAddress(dep.Row.Address)
	if err := a.Rental.Confirm(tenant, addr); err != nil {
		t.Fatal(err)
	}

	stream := openStream(t, b, "/api/v1/heads", nil)
	stream.next(5 * time.Second) // initial head frame

	// The tenant goes silent; empty seals advance the chain past the
	// rent deadline and hold the overdue condition for two blocks.
	sawAlert := false
	var alertData string
	for i := 0; i < 5 && !sawAlert; i++ {
		bc.MineBlock()
		for {
			f := stream.next(5 * time.Second)
			if f.event == "alert" {
				sawAlert = true
				alertData = f.data
				break
			}
			if f.event == "head" {
				break
			}
		}
	}
	if !sawAlert {
		t.Fatal("no event:alert frame on the head stream")
	}
	var al watch.Alert
	if err := json.Unmarshal([]byte(alertData), &al); err != nil {
		t.Fatal(err)
	}
	if al.Rule != "missed-rent" || al.Value < 1 {
		t.Fatalf("alert frame: %s", alertData)
	}

	// Exactly one firing, visible via the REST alert feed...
	resp, body := b.get("/api/v1/alerts")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alerts: %d %s", resp.StatusCode, body)
	}
	var feed struct {
		Alerts []watch.Alert `json:"alerts"`
		Firing int           `json:"firing"`
		Total  uint64        `json:"total"`
	}
	if err := json.Unmarshal([]byte(body), &feed); err != nil {
		t.Fatal(err)
	}
	if len(feed.Alerts) != 1 || feed.Total != 1 || feed.Firing != 1 {
		t.Fatalf("alert feed: %s", body)
	}
	// ... filterable by sequence ...
	resp, body = b.get("/api/v1/alerts?since=" + jsonUint(feed.Alerts[0].Seq))
	if resp.StatusCode != http.StatusOK {
		t.Fatal(resp.StatusCode)
	}
	if err := json.Unmarshal([]byte(body), &feed); err != nil {
		t.Fatal(err)
	}
	if len(feed.Alerts) != 0 {
		t.Fatalf("since filter returned %s", body)
	}
	// ... and on the contract's own timeline.
	sawTimelineAlert := false
	for _, ev := range tw.Timeline(addr) {
		if ev.Type == "alert" && ev.Rule == "missed-rent" {
			sawTimelineAlert = true
		}
	}
	if !sawTimelineAlert {
		t.Fatal("alert missing from contract timeline")
	}

	// More silent blocks must not re-fire.
	for i := 0; i < 3; i++ {
		bc.MineBlock()
	}
	tw.Sync()
	if st := tw.Status(); st.AlertsTotal != 1 {
		t.Fatalf("re-fired: %d total", st.AlertsTotal)
	}
}

func jsonUint(n uint64) string {
	b, _ := json.Marshal(n)
	return string(b)
}
