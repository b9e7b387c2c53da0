package app

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestMalformedAddressAnswers: a {addr} that is 0x and 40 characters
// but not hex answers 404 on the HTML and document routes and the 400
// envelope on every v1 contract route. Decoding it with a panicking
// parser would drop the connection instead of answering.
func TestMalformedAddressAnswers(t *testing.T) {
	b, _, _ := apiRig(t)
	bad := "0x" + strings.Repeat("z", 40)
	cases := []struct {
		method, path string
		status       int
	}{
		{"GET", "/contract/" + bad, 404},
		{"POST", "/contract/" + bad + "/pay", 404},
		{"GET", "/doc/" + bad, 404},
		{"GET", "/doc/nothex", 404},
		{"GET", "/api/v1/contracts/" + bad, 400},
		{"POST", "/api/v1/contracts/" + bad + "/actions", 400},
		{"GET", "/api/v1/contracts/" + bad + "/events", 400},
		{"GET", "/api/v1/contracts/" + bad + "/payments", 400},
		{"GET", "/api/v1/contracts/" + bad + "/audit", 400},
		{"GET", "/api/v1/contracts/" + bad + "/timeline", 400},
	}
	for _, tc := range cases {
		t.Run(tc.method+" "+tc.path, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, b.url+tc.path, strings.NewReader(`{"action":"pay"}`))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := b.c.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.status, data)
			}
			if tc.status != 400 {
				return
			}
			var env v1Envelope
			if err := json.Unmarshal(data, &env); err != nil {
				t.Fatalf("non-envelope body: %s", data)
			}
			if env.Error.Code != v1BadRequest || env.Error.Message != "bad contract address" {
				t.Fatalf("envelope %+v", env.Error)
			}
		})
	}
}

// TestV1UnmatchedPathsAnswerEnvelope: every path under /api/v1/ that
// no route names answers the 404 envelope, trailing-slash forms of the
// contract routes included.
func TestV1UnmatchedPathsAnswerEnvelope(t *testing.T) {
	b, _, addr := apiRig(t)
	for _, path := range []string{
		"/api/v1/nope",
		"/api/v1/me/",
		"/api/v1/contracts/",
		"/api/v1/contracts/" + addr + "/",
		"/api/v1/contracts/" + addr + "/actions/",
		"/api/v1/contracts/" + addr + "/nope",
	} {
		resp, body := b.get(path)
		var env v1Envelope
		if err := json.Unmarshal([]byte(body), &env); err != nil {
			t.Fatalf("%s: non-envelope body %q", path, body)
		}
		if resp.StatusCode != http.StatusNotFound || env.Error.Code != v1NotFound ||
			!strings.HasPrefix(env.Error.Message, "unknown endpoint ") {
			t.Fatalf("%s: %d %+v", path, resp.StatusCode, env.Error)
		}
	}
	// A GET with an action still renders the contract page.
	resp, body := b.get("/contract/" + addr + "/pay")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, addr) {
		t.Fatalf("GET /contract/{addr}/pay: %d", resp.StatusCode)
	}
	// A method a v1 route does not answer is the 405 envelope, not the
	// mux's plain text.
	req, _ := http.NewRequest(http.MethodDelete, b.url+"/api/v1/contracts/"+addr+"/audit", bytes.NewReader(nil))
	resp, err := b.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var env v1Envelope
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || env.Error.Code != v1NotAllowed || env.Error.Message != "GET only" {
		t.Fatalf("DELETE audit: %d %+v", resp.StatusCode, env.Error)
	}
}
