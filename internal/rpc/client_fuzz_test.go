package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"legalchain/internal/wallet"
)

// replySeeds are the reply bodies FuzzClientReply starts from: the
// server's own answers of every result shape the client reads, then hand
// cases for key case, repeated and null members, bad types, numbers the
// error code refuses, escapes, invalid UTF-8 and bytes after the
// envelope.
func replySeeds(t testing.TB) []string {
	bc, counter, accs, logs := logsChain(t, t.TempDir())
	defer bc.Close()
	ks := wallet.NewKeystore()
	srv := NewServer(bc, ks)
	var seeds []string
	for _, msg := range []string{
		`{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber","params":[]}`,
		`{"jsonrpc":"2.0","id":2,"method":"eth_getLogs","params":[{"fromBlock":"0x0","address":"` + counter.Hex() + `"}]}`,
		`{"jsonrpc":"2.0","id":3,"method":"eth_getTransactionReceipt","params":["` + logs[0].TxHash.Hex() + `"]}`,
		`{"jsonrpc":"2.0","id":4,"method":"eth_getTransactionReceipt","params":["` + unknownHash + `"]}`,
		`{"jsonrpc":"2.0","id":5,"method":"eth_call","params":[{"from":"` + accs[0].Address.Hex() + `","to":"` + counter.Hex() + `","data":"0x06661abd"}]}`,
		`{"jsonrpc":"2.0","id":6,"method":"eth_getBlockByNumber","params":["<&\"tag"]}`,
	} {
		seeds = append(seeds, string(serveMessage(nil, []byte(msg), func(req *request) response {
			return srv.handle(context.Background(), req)
		}))+"\n")
	}
	return append(seeds,
		``, ` `, `null`, `"x"`, `[]`, `{}`, `{"result":null}`, `{"result":"0x1"} trailing`, `{"result":"0x1"}{}`,
		`{"RESULT":"0x1","Error":null}`,
		`{"result":"0x1","result":"0x2"}`,
		`{"error":{"code":-32000,"message":"a"},"error":{"message":"b"}}`,
		`{"error":{"code":1},"error":null}`,
		`{"error":{"code":1.5,"message":"x"}}`,
		`{"error":{"code":1e2}}`,
		`{"error":{"code":-0,"message":"x","data":{"deep":[1,2.5e400]}}}`,
		`{"error":{"code":99999999999999999999}}`,
		`{"error":{"code":"3","message":"x"}}`,
		`{"error":[],"result":"0x1"}`,
		`{"error":{"message":"execution reverted: no","requestID":"r1"}}`,
		`{"result":5}`, `{"result":true}`, `{"result":{}}`, `{"result":[null,{},{"topics":null}]}`,
		`{"result":[{"Address":"0x1","TOPICS":["a",null],"data":"A😀\ud800","logIndex":1}]}`,
		`{"result":[{"topics":["a","b"],"topics":["c"]}]}`,
		`{"result":[{"topics":["a","b"],"topics":[null]}]}`,
		`{"result":{"logs":[{"address":"x"}],"logs":[{}],"status":null,"revertReason":"\"<&> "}}`,
		"{\"result\":\"\xff\xfe\"}",
		`{"result":"0x1","extra":{"a":[1,{"b":null}]}}`,
		`{"result":"0x1",}`,
		`{"result":"unterminated}`,
	)
}

// FuzzClientReply reads hostile reply bodies with the client's decoder
// and with encoding/json: both accept the same bodies and decode the
// same envelope, and every typed result (a string, a list of logs, a
// receipt) decodes to the same value or fails in both.
func FuzzClientReply(f *testing.F) {
	for _, seed := range replySeeds(f) {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var wire struct {
			Result json.RawMessage `json:"result"`
			Error  *replyError     `json:"error"`
		}
		werr := json.Unmarshal(body, &wire)
		result, rerr, err := readReply(body)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%q: reader error %v, encoding/json %v", body, err, werr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(result, wire.Result) || (result == nil) != (wire.Result == nil) {
			t.Fatalf("%q: result %q, encoding/json %q", body, result, wire.Result)
		}
		if !reflect.DeepEqual(rerr, wire.Error) {
			t.Fatalf("%q: error %+v, encoding/json %+v", body, rerr, wire.Error)
		}
		if result == nil || string(result) == "null" {
			return
		}
		same := func(what string, got, want interface{}, gotErr, wantErr error) {
			t.Helper()
			if (gotErr == nil) != (wantErr == nil) || (gotErr == nil && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%q: %s %#v (%v), encoding/json %#v (%v)", result, what, got, gotErr, want, wantErr)
			}
		}
		var s, ws string
		err, werr = readString(result, &s), json.Unmarshal(result, &ws)
		same("string", s, ws, err, werr)
		var logs, wlogs []logWire
		err, werr = readLogs(result, &logs), json.Unmarshal(result, &wlogs)
		same("logs", logs, wlogs, err, werr)
		var rcpt, wrcpt *receiptWire
		err, werr = readReceipt(result, &rcpt), json.Unmarshal(result, &wrcpt)
		same("receipt", rcpt, wrcpt, err, werr)
	})
}
