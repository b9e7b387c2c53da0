package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"math/big"
	"testing"

	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/jsonwire"
	"legalchain/internal/uint256"
	"legalchain/internal/upgrade"
	"legalchain/internal/wallet"
)

// awkward holds what encoding/json escapes: HTML characters, a quote, a
// backslash, control characters, U+2028, U+2029 and invalid UTF-8.
const awkward = "<a href=\"x\">&amp;</a>\\ \x00\x01\b\f\n\r\t\x1f\x7f \u2028\u2029 é \xff\xc3 \xed\xa0\x80 \U0001F600"

// TestAppenderMatchesMapBuilders writes each answer shape, each optional
// member present and absent, through the appender and through the map
// builders and encoding/json, and wants the same bytes.
func TestAppenderMatchesMapBuilders(t *testing.T) {
	key := wallet.DevAccounts("wire", 1)[0].Key
	to := ethtypes.Address{0xaa, 0xbb}
	huge := uint256.FromBig(new(big.Int).Lsh(big.NewInt(3), 200))
	signed := &ethtypes.Transaction{Nonce: 7, GasPrice: huge, Gas: 21000, To: &to, Value: uint256.NewUint64(255), Data: []byte{1, 2}}
	if err := signed.Sign(key, 1337); err != nil {
		t.Fatal(err)
	}
	creation := &ethtypes.Transaction{Nonce: 0, GasPrice: uint256.Zero, Gas: 1, Value: uint256.Zero} // unsigned: no sender
	logs := []*ethtypes.Log{
		{Address: to, Data: nil, BlockNumber: 3, BlockHash: ethtypes.Hash{1}, TxHash: ethtypes.Hash{2}, TxIndex: 1, Index: 4},
		{Address: to, Topics: []ethtypes.Hash{{9}, {8}}, Data: []byte{0xff}, BlockNumber: 1 << 40},
	}
	block := &ethtypes.Block{
		Header:       &ethtypes.Header{ParentHash: ethtypes.Hash{5}, Number: 12, Time: 1 << 33, GasLimit: 30_000_000, GasUsed: 42000, Coinbase: to, StateRoot: ethtypes.Hash{6}},
		Transactions: []*ethtypes.Transaction{signed, creation},
	}
	empty := &ethtypes.Block{Header: &ethtypes.Header{}}
	results := []interface{}{
		nil, "", awkward, true, false,
		[]string(nil), []string{}, []string{"0x1", awkward},
		[]*ethtypes.Log(nil), logs, logs[1],
		&ethtypes.Receipt{TxHash: ethtypes.Hash{1}, TxIndex: 2, BlockNumber: 3, From: to, To: &to, GasUsed: 4, CumulativeGasUsed: 5, Status: 1},
		&ethtypes.Receipt{ContractAddress: &to, Logs: logs, RevertReason: awkward},
		txAnswer{signed, 1337, ethtypes.Hash{3}, 4, 5},
		txAnswer{creation, 1337, ethtypes.Hash{}, 0, 0},
		blockAnswer{block, false, 1337}, blockAnswer{block, true, 1337}, blockAnswer{empty, true, 1337},
		headAnswer{block},
		gapNotice{missed: "0x3", resume: "0x9"}, gapNotice{missed: "0x1"},
		rawJSON(`{"structLogs":[],"gas":"0x0"}`),
	}
	ids := [][]byte{nil, []byte(`null`), []byte(`7`), []byte(`-1.5e3`), []byte(`"a<b>&c\u2028` + "\xe2\x80\xa9\xff" + `"`), []byte("{ \"k\" :\t[ 1 ,\n\"x y\" ] }")}
	rej := &upgrade.RejectionError{Report: &upgrade.Report{Candidate: "V2<&>"}}
	errs := []*rpcError{
		{Code: codeParse, Message: "parse error"},
		{Code: codeRevert, Message: "execution reverted: " + awkward, Data: "0x08c379a0"},
		{Code: codeInvalidParams, Message: awkward, RequestID: "rid-<1>"},
		toRPCError(rej),
		{Code: codeServerError, Message: "x", Data: map[string]interface{}{"b": 1, "a": []int{2}}},
	}
	for _, id := range ids {
		for _, v := range results {
			resp := response{id: id, result: v}
			want, _ := json.Marshal(referenceAnswer(resp))
			if got := appendResponse(nil, resp); !bytes.Equal(got, want) {
				t.Errorf("id %s, %T:\n got %s\nwant %s", id, v, got, want)
			}
		}
		for _, e := range errs {
			resp := response{id: id, err: e}
			want, _ := json.Marshal(referenceAnswer(resp))
			if got := appendResponse(nil, resp); !bytes.Equal(got, want) {
				t.Errorf("id %s, error %+v:\n got %s\nwant %s", id, e, got, want)
			}
		}
	}
	for _, v := range []interface{}{headAnswer{block}, logs[0], gapNotice{missed: "0x1", resume: "0x2"}, gapNotice{missed: "0x1"}, "0xab"} {
		want := referenceNotification("0x1f", v)
		if got := appendNotification(nil, "0x1f", v); !bytes.Equal(got, want) {
			t.Errorf("notification of %T:\n got %s\nwant %s", v, got, want)
		}
	}
}

// serveSeeds are the messages FuzzServeMessage starts from: every case
// of TestMessageTableOverHTTPAndWS, then hand cases for the envelope
// (key case, repeated keys, ids of every kind, HTML characters and
// invalid UTF-8 in strings, by-name params) and a call to every method
// with good and bad params over the chain logsChain seals.
func serveSeeds(bc *chain.Blockchain, counter ethtypes.Address, accs []wallet.Account, logs []*ethtypes.Log) []string {
	seeds := []string{}
	for _, tc := range messageCases {
		seeds = append(seeds, tc.msg)
	}
	call := func(id interface{}, method string, params string) string {
		raw, _ := json.Marshal(id)
		return `{"jsonrpc":"2.0","id":` + string(raw) + `,"method":"` + method + `","params":` + params + `}`
	}
	tx := logs[0].TxHash.Hex()
	blk := logs[0].BlockHash.Hex()
	addr, from := counter.Hex(), accs[0].Address.Hex()
	topic := logs[0].Topics[0].Hex()
	seeds = append(seeds,
		`{"JSONRPC":"2.0","ID":1,"Method":"eth_chainId","PARAMS":[]}`,
		`{"jsonrpc":"2.0","id":1,"id":2,"method":"eth_chainId","method":"eth_blockNumber","params":[1],"params":[]}`,
		`{"jsonrpc":"2.0","id":null,"method":"eth_chainId"}`,
		`{"id":-1.5e3,"method":"eth_chainId","params":null}`,
		`{"id":"a\u0041\"<>&\u2028","method":"eth_chainId"}`,
		"{\"id\": { \"a\" : [ 1 , 2 ] } ,\t\"method\":\"eth_chainId\"}",
		"{\"id\":\"\xff<\",\"method\":\"eth_getBlockByNumber\",\"params\":[\"<&>\xff\\u2029\"]}",
		`{"jsonrpc":"2.0","id":1,"method":"eth_getBalance","params":{"address":"`+from+`"}}`,
		`{"jsonrpc":2,"id":1,"method":"eth_chainId"}`,
		`{"jsonrpc":"2.0","id":1,"method":null}`,
		`{"jsonrpc":"2.0","id":1,"method":"eth_chainId","unknown":{"deep":[true,false,null]}}`,
		`null`, `[null]`, `[[]]`, "\v{}", " ", ``, `{"id":1} x`, `[1] x`,
		call(1, "web3_clientVersion", `[]`),
		call(2, "net_version", `[]`),
		call(3, "eth_gasPrice", `[]`),
		call(4, "eth_accounts", `[]`),
		call(5, "eth_getBalance", `["`+from+`","latest"]`),
		call(6, "eth_getBalance", `[1]`),
		call(7, "eth_getTransactionCount", `["0x12"]`),
		call(8, "eth_getCode", `["`+addr+`"]`),
		call(9, "eth_getStorageAt", `["`+addr+`","0x0","latest"]`),
		call(10, "eth_getStorageAt", `["`+addr+`",{"a":1}]`),
		call(11, "eth_sendRawTransaction", `["0xf86b"]`),
		call(12, "eth_sendRawTransaction", `["zz"]`),
		call(13, "eth_call", `[{"from":"`+from+`","to":"`+addr+`","data":"0xd09de08a"},"latest"]`),
		call(14, "eth_call", `[{"FROM":"`+from+`","To":"`+addr+`","input":"0x06661abd","gas":"0x5208","value":"0x0","gasPrice":null}]`),
		call(15, "eth_call", `[{"from":1}]`),
		call(16, "eth_call", `["x"]`),
		call(17, "eth_call", `[null]`),
		call(18, "eth_estimateGas", `[{"from":"`+from+`","to":"`+addr+`","data":"0xd09de08a"}]`),
		call(19, "eth_getTransactionReceipt", `["`+tx+`"]`),
		call(20, "eth_getTransactionByHash", `["`+tx+`"]`),
		call(21, "eth_getBlockByNumber", `["0x1",true]`),
		call(22, "eth_getBlockByNumber", `["latest",false]`),
		call(23, "eth_getBlockByHash", `["`+blk+`",true]`),
		call(24, "eth_getLogs", `[{"fromBlock":"earliest","address":"`+addr+`","topics":[["`+topic+`"],null]}]`),
		call(25, "eth_getLogs", `[{"topics":"x"}]`),
		call(26, "eth_getLogs", `[{"address":[1]}]`),
		call(27, "eth_getLogs", `[{"fromBlock":5,"toBlock":[]}]`),
		call(27, "eth_getLogs", `[{"fromBlock":"0x3","fromBlock":null,"toBlock":"0x4"}]`),
		call(27, "eth_getLogs", `[{"topics":{"a":1}}]`),
		call(21, "eth_getBlockByNumber", `["0x1","true"]`),
		`[`+call(28, "eth_newFilter", `[{"fromBlock":"0x1"}]`)+`,`+call(29, "eth_getFilterChanges", `["0x1"]`)+`,`+call(30, "eth_getFilterLogs", `["0x1"]`)+`,`+call(31, "eth_uninstallFilter", `["0x1"]`)+`]`,
		`[`+call(32, "eth_newBlockFilter", `[]`)+`,`+call(33, "eth_getFilterChanges", `["0x2"]`)+`]`,
		call(34, "evm_increaseTime", `[5]`),
		call(35, "evm_increaseTime", `["0x5"]`),
		call(36, "evm_increaseTime", `[null]`),
		call(37, "evm_increaseTime", `[-1]`),
		call(38, "debug_traceCall", `[{"from":"`+from+`","to":"`+addr+`","data":"0xd09de08a"}]`),
		call(39, "debug_traceTransaction", `["`+tx+`",{"tracer":"callTracer"}]`),
		call(40, "debug_traceTransaction", `["`+tx+`",{"tracer":5}]`),
		call(41, "debug_traceBlockByNumber", `["0x1",null]`),
		call(42, "legal_watchStatus", `[]`),
		call(43, "no_such_method", `[]`),
	)
	return seeds
}

// FuzzServeMessage sends hostile messages through serveMessage and
// through the encoding/json pipeline it replaced (encoding/json decode, the map builders, a
// json.Encoder) on two servers over one chain: the answers must be the
// same bytes. Every parameter the oracle decoded is also read by each
// param helper and its encoding/json oracle, and the message itself is
// written by jsonwire.AppendString and by json.Marshal.
func FuzzServeMessage(f *testing.F) {
	bc, counter, accs, logs := logsChain(f, f.TempDir())
	f.Cleanup(func() { bc.Close() })
	ks := wallet.NewKeystore()
	for _, a := range accs {
		ks.Import(a.Key)
	}
	srv, ref := NewServer(bc, ks), NewServer(bc, ks)
	ctx := context.Background()
	for _, seed := range serveSeeds(bc, counter, accs, logs) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, msg string) {
		got := append(serveMessage(nil, []byte(msg), func(req *request) response { return srv.handle(ctx, req) }), '\n')
		want, reqs := referenceServe([]byte(msg), func(req *request) response { return ref.handle(ctx, req) })
		if !bytes.Equal(got, want) {
			t.Fatalf("%q:\n got %s\nwant %s", msg, got, want)
		}
		for _, req := range reqs {
			checkParams(t, req.Params)
		}
		if want, _ := json.Marshal(msg); !bytes.Equal(jsonwire.AppendString(nil, msg), want) {
			t.Fatalf("jsonwire.AppendString(%q) = %s, want %s", msg, jsonwire.AppendString(nil, msg), want)
		}
	})
}

// TestServeMessageAllocations pins the codec's share of an answer: an
// eth_blockNumber message is decoded and answered in a handful of
// allocations, none of them reflection's.
func TestServeMessageAllocations(t *testing.T) {
	bc := chain.New(chain.DefaultGenesis())
	t.Cleanup(func() { bc.Close() })
	srv := NewServer(bc, nil)
	msg := []byte(`{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber","params":[]}`)
	out := make([]byte, 0, 256)
	handle := func(req *request) response { return srv.handle(context.Background(), req) }
	allocs := testing.AllocsPerRun(100, func() { out = serveMessage(out[:0], msg, handle) })
	t.Logf("%.0f allocs per eth_blockNumber message", allocs)
	if want := `{"jsonrpc":"2.0","id":1,"result":"0x0"}`; string(out) != want {
		t.Fatalf("answer %s, want %s", out, want)
	}
	if allocs > 8 {
		t.Fatalf("%.0f allocs per message, want ≤ 8", allocs)
	}
}
