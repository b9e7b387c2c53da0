package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/ws"
)

// messageRig serves one chain over HTTP and over WS from one Server.
func messageRig(t *testing.T) (*chain.Blockchain, string, *wsTestClient) {
	t.Helper()
	bc := chain.New(chain.DefaultGenesis())
	t.Cleanup(func() { bc.Close() })
	url, c := serveBoth(t, bc)
	return bc, url, c
}

// serveBoth serves bc over HTTP and over WS from one Server.
func serveBoth(t *testing.T, bc *chain.Blockchain) (string, *wsTestClient) {
	t.Helper()
	srv := NewServer(bc, nil)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	wss := httptest.NewServer(http.HandlerFunc(srv.ServeWS))
	t.Cleanup(wss.Close)
	return hs.URL, dialWS(t, wss.URL)
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

// messageCases are the messages TestMessageTableOverHTTPAndWS sends;
// onLogs ones go to a chain with transactions and logs (logsChain).
var messageCases = []struct {
	name, msg string
	batch     bool
	onLogs    bool
	want      string // a fragment of the answer
}{
	{"parse error", `{"jsonrpc":"2.0",`, false, false, `"code":-32700`},
	{"batch parse error", `[{"jsonrpc":"2.0"`, false, false, `"code":-32700`},
	{"invalid request", `"not a request"`, false, false, `"code":-32600`},
	{"missing method", `{"jsonrpc":"2.0","id":3}`, false, false, `"code":-32600`},
	{"empty batch", ` [ ] `, false, false, `"empty batch"`},
	{"mixed batch", `[1, {"jsonrpc":"2.0","id":7,"method":"eth_blockNumber","params":[]}, "x", {"id":8}]`, true, false, `"id":7,"result":"0x0"`},
	{"single", `{"jsonrpc":"2.0","id":"a","method":"eth_chainId","params":[]}`, false, false, `"result":"0x539"`},
	{"null result", `{"jsonrpc":"2.0","id":2,"method":"eth_getTransactionReceipt","params":["` + unknownHash + `"]}`, false, false, `{"jsonrpc":"2.0","id":2,"result":null}`},
	{"escaped error message", `{"jsonrpc":"2.0","id":4,"method":"eth_getBlockByNumber","params":["<&\"tag"]}`, false, false, `"message":"bad block tag \"\u003c\u0026\\\"tag\""`},
	{"getLogs", `{"jsonrpc":"2.0","id":5,"method":"eth_getLogs","params":[{"fromBlock":"0x0"}]}`, false, true, `"logIndex":"0x0","removed":false,"topics":["0x`},
	{"full block", `{"jsonrpc":"2.0","id":6,"method":"eth_getBlockByNumber","params":["0x2",true]}`, false, true, `"transactions":[{"blockHash":"0x`},
}

// TestMessageTableOverHTTPAndWS sends each JSON-RPC message over HTTP
// and over WS: both go through one codec, so the answers are byte for
// byte the same, and the same bytes as the encoding/json pipeline's
// (referenceServe); a batch moves the batch-size histogram on either
// transport.
func TestMessageTableOverHTTPAndWS(t *testing.T) {
	bc, url, c := messageRig(t)
	logsBC, _, _, _ := logsChain(t, t.TempDir())
	t.Cleanup(func() { logsBC.Close() })
	logsURL, logsWS := serveBoth(t, logsBC)
	for _, tc := range messageCases {
		chainOf, httpURL, wsc := bc, url, c
		if tc.onLogs {
			chainOf, httpURL, wsc = logsBC, logsURL, logsWS
		}
		before := rpcBatchSize.Count()
		rawHTTP := postRaw(t, httpURL, tc.msg)
		afterHTTP := rpcBatchSize.Count()
		rawWS := wsc.sendFrame(tc.msg)
		afterWS := rpcBatchSize.Count()
		if string(rawHTTP) != string(rawWS)+"\n" {
			t.Errorf("%s: HTTP answers %s, WS %s", tc.name, rawHTTP, rawWS)
		}
		ref := NewServer(chainOf, nil)
		want, _ := referenceServe([]byte(tc.msg), func(req *request) response { return ref.handle(context.Background(), req) })
		if string(rawHTTP) != string(want) {
			t.Errorf("%s: answer %s, the encoding/json pipeline %s", tc.name, rawHTTP, want)
		}
		if !strings.Contains(string(rawHTTP), tc.want) {
			t.Errorf("%s: answer %s lacks %s", tc.name, rawHTTP, tc.want)
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

// unknownHash names no transaction on any test chain.
const unknownHash = "0x00000000000000000000000000000000000000000000000000000000000000ab"

// TestReceiptOfUnknownHashIsNotFound: a successful null result keeps its
// "result" member, so the client reads a receipt that is not there yet
// as not found rather than as a broken answer.
func TestReceiptOfUnknownHashIsNotFound(t *testing.T) {
	_, url, _ := messageRig(t)
	rcpt, found, err := Dial(url).TransactionReceipt(ethtypes.HexToHash(unknownHash))
	if rcpt != nil || found || err != nil {
		t.Fatalf("receipt of an unknown hash = %v, %v, %v; want nil, false, nil", rcpt, found, err)
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
