package rpc

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"legalchain/internal/chain"
	"legalchain/internal/ws"
)

// messageRig serves one chain over HTTP and over WS from one Server.
func messageRig(t *testing.T) (*chain.Blockchain, string, *wsTestClient) {
	t.Helper()
	bc := chain.New(chain.DefaultGenesis())
	t.Cleanup(func() { bc.Close() })
	srv := NewServer(bc, nil)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	wss := httptest.NewServer(http.HandlerFunc(srv.ServeWS))
	t.Cleanup(wss.Close)
	return bc, hs.URL, dialWS(t, wss.URL)
}

// sendFrame writes one raw WS frame and returns the next frame that is
// not a subscription notification.
func (c *wsTestClient) sendFrame(msg string) []byte {
	c.t.Helper()
	if err := c.conn.WriteMessage(ws.OpText, []byte(msg)); err != nil {
		c.t.Fatalf("write: %v", err)
	}
	for {
		c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, payload, err := c.conn.ReadMessage()
		if err != nil {
			c.t.Fatalf("read: %v", err)
		}
		if !bytes.Contains(payload, []byte(`"eth_subscription"`)) {
			return payload
		}
	}
}

func compactJSON(t *testing.T, raw []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, raw)
	}
	return buf.String()
}

// TestMessageTableOverHTTPAndWS sends each JSON-RPC message over HTTP
// and over WS: both decode it through one decoder, so the answers are
// byte for byte the same, and a batch moves the batch-size histogram
// on either transport.
func TestMessageTableOverHTTPAndWS(t *testing.T) {
	_, url, c := messageRig(t)
	cases := []struct {
		name, msg string
		batch     bool
		want      string // a fragment of the answer
	}{
		{"parse error", `{"jsonrpc":"2.0",`, false, `"code":-32700`},
		{"batch parse error", `[{"jsonrpc":"2.0"`, false, `"code":-32700`},
		{"invalid request", `"not a request"`, false, `"code":-32600`},
		{"missing method", `{"jsonrpc":"2.0","id":3}`, false, `"code":-32600`},
		{"empty batch", ` [ ] `, false, `"empty batch"`},
		{"mixed batch", `[1, {"jsonrpc":"2.0","id":7,"method":"eth_blockNumber","params":[]}, "x", {"id":8}]`, true, `"id":7,"result":"0x0"`},
		{"single", `{"jsonrpc":"2.0","id":"a","method":"eth_chainId","params":[]}`, false, `"result":"0x539"`},
	}
	for _, tc := range cases {
		before := rpcBatchSize.Count()
		overHTTP := compactJSON(t, postRaw(t, url, tc.msg))
		afterHTTP := rpcBatchSize.Count()
		overWS := compactJSON(t, c.sendFrame(tc.msg))
		afterWS := rpcBatchSize.Count()
		if overHTTP != overWS {
			t.Errorf("%s: HTTP answers %s, WS %s", tc.name, overHTTP, overWS)
		}
		if !strings.Contains(overHTTP, tc.want) {
			t.Errorf("%s: answer %s lacks %s", tc.name, overHTTP, tc.want)
		}
		observed := uint64(0)
		if tc.batch {
			observed = 1
		}
		if afterHTTP-before != observed || afterWS-afterHTTP != observed {
			t.Errorf("%s: batch-size histogram moved %d over HTTP and %d over WS, want %d each",
				tc.name, afterHTTP-before, afterWS-afterHTTP, observed)
		}
	}
}

// TestWSBatchSubscribes: a WS batch may hold eth_subscribe; the entry
// answers with a subscription ID that then receives notifications,
// beside its siblings' ordinary answers.
func TestWSBatchSubscribes(t *testing.T) {
	bc, _, c := messageRig(t)
	before := rpcBatchSize.Count()
	raw := c.sendFrame(`[{"jsonrpc":"2.0","id":1,"method":"eth_subscribe","params":["newHeads"]},` +
		`{"jsonrpc":"2.0","id":2,"method":"eth_blockNumber","params":[]}, 3]`)
	if got := rpcBatchSize.Count() - before; got != 1 {
		t.Fatalf("batch-size histogram moved %d, want 1", got)
	}
	var out []wireResp
	if err := json.Unmarshal(raw, &out); err != nil || len(out) != 3 {
		t.Fatalf("batch answer %s (%v)", raw, err)
	}
	var subID string
	if out[0].Error != nil || json.Unmarshal(out[0].Result, &subID) != nil || !strings.HasPrefix(subID, "0x") {
		t.Fatalf("eth_subscribe entry: %s", raw)
	}
	if out[1].Error != nil || string(out[1].Result) != `"0x0"` {
		t.Fatalf("eth_blockNumber entry: %s", raw)
	}
	if out[2].Error == nil || out[2].Error.Code != codeInvalidRequest {
		t.Fatalf("non-object entry: %s", raw)
	}
	bc.MineBlock()
	var head struct{ Number string }
	if err := json.Unmarshal(c.nextNotif(subID, 5*time.Second), &head); err != nil || head.Number != "0x1" {
		t.Fatalf("notification %+v (%v), want block 0x1", head, err)
	}
}
