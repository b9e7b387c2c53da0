package app

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"legalchain/internal/obs"
)

// cancelOnFlush is a ResponseRecorder that cancels the request's
// context on the first flush, so an event stream sends its opening
// frames and returns instead of waiting for heads.
type cancelOnFlush struct {
	*httptest.ResponseRecorder
	cancel context.CancelFunc
}

func (c cancelOnFlush) Flush() {
	c.ResponseRecorder.Flush()
	c.cancel()
}

// FuzzWebRequest serves hostile requests through the web tier as the
// node mounts it (obs.LogRequests over Handler), with a logged-in
// session and one deployed agreement: a method, a raw path and query,
// and a short body. No input may panic a handler, and every /api/v1/
// answer of status 400 or more is the v1 error envelope.
func FuzzWebRequest(f *testing.F) {
	a := rig(f)
	const name, pass = "fuzzer", "pw"
	u, err := a.Register(name, name+"@x.io", pass)
	if err != nil {
		f.Fatal(err)
	}
	dep, err := a.deployAgreement(u, "BaseRental", termsInput{RentEth: "1", DepositEth: "2", Months: 12, House: "fuzz-house"})
	if err != nil {
		f.Fatal(err)
	}
	addr := dep.Row.Address
	bad := "0x" + strings.Repeat("z", 40)
	for _, seed := range []struct {
		method byte
		target string
		body   string
	}{
		{0, "/doc/nothex", ""},
		{0, "/contract/" + bad, ""},
		{1, "/contract/" + bad + "/pay", ""},
		{0, "/api/v1/contracts/" + bad, ""},
		{0, "/api/v1/contracts/" + bad + "/audit", ""},
		{0, "/api/v1/heads?since=banana", ""},
		{0, "/api/v1/contracts/" + addr + "/events?since=banana", ""},
		{0, "/api/v1/contracts/" + addr + "/events?since=0", ""},
		{0, "/api/v1/contracts?limit=1&since=banana", ""},
		{0, "/api/v1/contracts/" + addr + "/payments?cursor=-1", ""},
		{0, "/api/v1/contracts/" + addr + "/timeline", ""},
		{1, "/api/v1/contracts/" + addr + "/actions", `{"action":"explode"}`},
		{1, "/api/v1/contracts", `{"artifact":"BaseRental","rentEth":"-1"}`},
		{2, "/api/v1/contracts/" + addr, ""},
		{0, "/api/v1/contracts/" + addr + "/", ""},
		{0, "/contract/" + addr + "/pay", ""},
		{0, "/doc/" + addr, ""},
		{0, "/", ""},
	} {
		f.Add(seed.method, seed.target, []byte(seed.body))
	}

	h := obs.LogRequests(nil, a.Handler())
	login := func() string {
		token, err := a.Login(name, pass)
		if err != nil {
			f.Fatal(err)
		}
		return token
	}
	token := login()
	methods := [...]string{http.MethodGet, http.MethodPost, http.MethodDelete}
	f.Fuzz(func(t *testing.T, method byte, target string, body []byte) {
		u, err := url.ParseRequestURI(target)
		if err != nil || len(body) > 512 {
			return
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		req := (&http.Request{
			Method:        methods[int(method)%len(methods)],
			URL:           u,
			RequestURI:    target,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        http.Header{"Content-Type": {"application/x-www-form-urlencoded"}},
			Body:          io.NopCloser(bytes.NewReader(body)),
			ContentLength: int64(len(body)),
			Host:          "legalchain.test",
			RemoteAddr:    "192.0.2.1:1234",
		}).WithContext(ctx)
		req.AddCookie(&http.Cookie{Name: sessionCookie, Value: token})
		rec := httptest.NewRecorder()
		h.ServeHTTP(cancelOnFlush{rec, cancel}, req)
		if strings.HasPrefix(u.Path, "/api/v1/") && rec.Code >= 400 {
			var env v1Envelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code == "" {
				t.Fatalf("%s %q: status %d, body %q is not the v1 envelope", req.Method, target, rec.Code, rec.Body.Bytes())
			}
		}
		// A fuzzed /logout ends the session; the next input logs in anew.
		if _, err := a.SessionUser(token); err != nil {
			token = login()
		}
	})
}
