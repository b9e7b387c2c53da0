package rpc

import (
	"context"
	"encoding/json"
	"testing"

	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/minisol"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
)

// logsChain seals a small fixed chain on a durable store that keeps two
// blocks resident, so most blocks read back through the block log. Two
// Counters log, from two senders, and a plain transfer logs nothing
// between them; half-way the chain is closed and reopened, so the log
// index over the first half is the one recovery rebuilds from the
// block log. It returns the chain, the first Counter's address, two
// senders and every log in sealing order.
func logsChain(t testing.TB, dir string) (*chain.Blockchain, ethtypes.Address, []wallet.Account, []*ethtypes.Log) {
	t.Helper()
	accs := wallet.DevAccounts("getlogs fuzz", 2)
	g := chain.DefaultGenesis()
	g.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(100))
	open := func() *chain.Blockchain {
		bc, err := chain.Open(g, chain.WithPersistence(chain.PersistConfig{DataDir: dir, NoSync: true, RetainBlocks: 2}))
		if err != nil {
			t.Fatal(err)
		}
		return bc
	}
	bc := open()
	art, err := minisol.CompileContract(rpcCounterSrc, "Counter")
	if err != nil {
		t.Fatal(err)
	}
	var logs []*ethtypes.Log
	send := func(acc wallet.Account, to *ethtypes.Address, data []byte) *ethtypes.Receipt {
		tx := &ethtypes.Transaction{Nonce: bc.GetNonce(acc.Address), GasPrice: ethtypes.Gwei(1), Gas: 2_000_000, To: to, Value: uint256.Zero, Data: data}
		if err := tx.Sign(acc.Key, bc.ChainID()); err != nil {
			t.Fatal(err)
		}
		h, err := bc.SendTransaction(tx)
		if err != nil {
			t.Fatal(err)
		}
		rcpt, _ := bc.GetReceipt(h)
		logs = append(logs, rcpt.Logs...)
		return rcpt
	}
	counters := []ethtypes.Address{*send(accs[0], nil, art.Bytecode).ContractAddress, *send(accs[1], nil, art.Bytecode).ContractAddress}
	inc, _ := art.ABI.Pack("increment")
	for i := 0; i < 12; i++ {
		if i == 6 {
			if err := bc.Close(); err != nil {
				t.Fatal(err)
			}
			bc = open()
		}
		if i%3 == 2 {
			send(accs[0], &accs[1].Address, nil)
			continue
		}
		send(accs[i%2], &counters[i/2%2], inc)
	}
	return bc, counters[0], accs, logs
}

// flatScan is the reference eth_getLogs: every sealed log, filtered
// field by field.
func flatScan(logs []*ethtypes.Log, q chain.FilterQuery, head uint64) []interface{} {
	to := head
	if q.ToBlock != nil && *q.ToBlock < to {
		to = *q.ToBlock
	}
	out := []interface{}{}
	for _, l := range logs {
		ok := l.BlockNumber >= q.FromBlock && l.BlockNumber <= to
		if len(q.Addresses) > 0 {
			hit := false
			for _, a := range q.Addresses {
				hit = hit || a == l.Address
			}
			ok = ok && hit
		}
		for i, alts := range q.Topics {
			if len(alts) == 0 {
				continue
			}
			hit := false
			for _, h := range alts {
				hit = hit || (i < len(l.Topics) && l.Topics[i] == h)
			}
			ok = ok && hit
		}
		if ok {
			out = append(out, logJSON(l))
		}
	}
	return out
}

// FuzzGetLogs feeds hostile eth_getLogs filter objects to the server
// over a chain with evicted blocks, a log index rebuilt by recovery and
// two log-emitting contracts: no panic, a refused filter is an error,
// and every answer equals the flat scan of the decoded query, whatever
// addresses it names, in whatever order, repeated or not.
func FuzzGetLogs(f *testing.F) {
	bc, counter, accs, logs := logsChain(f, f.TempDir())
	f.Cleanup(func() { bc.Close() })
	srv := NewServer(bc, wallet.NewKeystore())
	head := bc.BlockNumber()
	bumped := ethtypes.Keccak256([]byte("bumped(address,uint256)")).Hex()
	var who ethtypes.Hash
	copy(who[12:], accs[1].Address[:])
	other := logs[len(logs)-1].Address // the second Counter
	if other == counter {
		f.Fatal("the last log is the first Counter's")
	}
	both := `"` + counter.Hex() + `","` + other.Hex() + `"`
	for _, seed := range []string{
		`{}`,
		`null`,
		`{"fromBlock":"0x1","toBlock":"0x5"}`,
		`{"fromBlock":"earliest","toBlock":"latest"}`,
		`{"fromBlock":"latest"}`,
		`{"fromBlock":"pending","toBlock":"pending"}`,
		`{"fromBlock":"safe","toBlock":"finalized"}`,
		`{"fromBlock":"0x7","toBlock":"0x2"}`,
		`{"fromBlock":"0xffffffffffffffff"}`,
		`{"fromBlock":"0x0","toBlock":"0xffffffffffffffff"}`,
		`{"fromBlock":"0x10000000000000000"}`,
		`{"fromBlock":7}`,
		`{"address":"` + counter.Hex() + `"}`,
		`{"address":["` + counter.Hex() + `","` + accs[0].Address.Hex() + `"],"fromBlock":"0x3"}`,
		`{"address":[]}`,
		`{"address":[` + both + `]}`,
		`{"address":["` + other.Hex() + `",` + both + `,"` + other.Hex() + `"],"fromBlock":"0x4","toBlock":"0xa"}`,
		`{"address":[` + both + `],"topics":[null,"` + who.Hex() + `"]}`,
		`{"address":["` + other.Hex() + `"],"fromBlock":"0x9","toBlock":"0x9"}`,
		`{"address":"0x12"}`,
		`{"topics":["` + bumped + `"]}`,
		`{"topics":[null,"` + who.Hex() + `"]}`,
		`{"topics":[null,[null]]}`,
		`{"topics":[["` + bumped + `",null],null]}`,
		`{"topics":[null,null,null,null,null]}`,
		`{"topics":null,"address":null}`,
		`[]`,
		`"latest"`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, filter string) {
		if !json.Valid([]byte(filter)) {
			return // a parameter is a JSON value: the message was read whole
		}
		params := [][]byte{[]byte(filter)}
		got, err := srv.dispatch(context.Background(), "eth_getLogs", params)
		q, qerr := filterParam(params, 0, head)
		if (err != nil) != (qerr != nil) {
			t.Fatalf("%s: server error %v, decode error %v", filter, err, qerr)
		}
		if err != nil {
			return
		}
		gotJSON := appendResult(nil, got)
		wantJSON, _ := json.Marshal(flatScan(logs, q, head))
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("%s:\n got %s\nwant %s", filter, gotJSON, wantJSON)
		}
	})
}
