package rpc

import (
	"encoding/json"

	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/hexutil"
	"legalchain/internal/uint256"
)

// callObject is the {from,to,gas,gasPrice,value,data} parameter of
// eth_call and eth_estimateGas.
type callObject struct {
	From     string `json:"from"`
	To       string `json:"to"`
	Gas      string `json:"gas"`
	GasPrice string `json:"gasPrice"`
	Value    string `json:"value"`
	Data     string `json:"data"`
	Input    string `json:"input"`
}

type callMsg struct {
	from  ethtypes.Address
	to    *ethtypes.Address
	gas   uint64
	value uint256.Int
	data  []byte
}

func callParam(params []json.RawMessage, i int) (*callMsg, error) {
	if i >= len(params) {
		return nil, invalidParams("missing call object")
	}
	var obj callObject
	if err := json.Unmarshal(params[i], &obj); err != nil {
		return nil, invalidParams("bad call object: %v", err)
	}
	msg := &callMsg{}
	if obj.From != "" {
		raw, err := hexutil.Decode(obj.From)
		if err != nil || len(raw) != 20 {
			return nil, invalidParams("bad from address")
		}
		msg.from = ethtypes.BytesToAddress(raw)
	}
	if obj.To != "" {
		raw, err := hexutil.Decode(obj.To)
		if err != nil || len(raw) != 20 {
			return nil, invalidParams("bad to address")
		}
		to := ethtypes.BytesToAddress(raw)
		msg.to = &to
	}
	if obj.Gas != "" {
		g, err := hexutil.DecodeUint64(obj.Gas)
		if err != nil {
			return nil, invalidParams("bad gas")
		}
		msg.gas = g
	}
	if obj.Value != "" {
		v, err := hexutil.DecodeBig(obj.Value)
		if err != nil {
			return nil, invalidParams("bad value")
		}
		msg.value = uint256.FromBig(v)
	}
	dataHex := obj.Data
	if dataHex == "" {
		dataHex = obj.Input
	}
	if dataHex != "" {
		d, err := hexutil.Decode(dataHex)
		if err != nil {
			return nil, invalidParams("bad data")
		}
		msg.data = d
	}
	return msg, nil
}

// filterObject is the eth_getLogs parameter.
type filterObject struct {
	FromBlock string            `json:"fromBlock"`
	ToBlock   string            `json:"toBlock"`
	Address   json.RawMessage   `json:"address"`
	Topics    []json.RawMessage `json:"topics"`
}

func filterParam(params []json.RawMessage, i int, latest uint64) (chain.FilterQuery, error) {
	q := chain.FilterQuery{}
	if i >= len(params) {
		return q, nil
	}
	var obj filterObject
	if err := json.Unmarshal(params[i], &obj); err != nil {
		return q, invalidParams("bad filter object: %v", err)
	}
	var err error
	if obj.FromBlock != "" {
		if q.FromBlock, err = parseBlockTag(obj.FromBlock, latest); err != nil {
			return q, err
		}
	}
	if obj.ToBlock != "" {
		to, err := parseBlockTag(obj.ToBlock, latest)
		if err != nil {
			return q, err
		}
		q.ToBlock = &to
	}
	// address: string or array of strings.
	if len(obj.Address) > 0 {
		var one string
		if err := json.Unmarshal(obj.Address, &one); err == nil {
			a, err := parseAddr(one)
			if err != nil {
				return q, err
			}
			q.Addresses = []ethtypes.Address{a}
		} else {
			var many []string
			if err := json.Unmarshal(obj.Address, &many); err != nil {
				return q, invalidParams("bad address filter")
			}
			for _, s := range many {
				a, err := parseAddr(s)
				if err != nil {
					return q, err
				}
				q.Addresses = append(q.Addresses, a)
			}
		}
	}
	// topics: array of (null | string | array of strings).
	for _, raw := range obj.Topics {
		if string(raw) == "null" {
			q.Topics = append(q.Topics, nil)
			continue
		}
		var one string
		if err := json.Unmarshal(raw, &one); err == nil {
			h, err := parseHash(one)
			if err != nil {
				return q, err
			}
			q.Topics = append(q.Topics, []ethtypes.Hash{h})
			continue
		}
		var many []string
		if err := json.Unmarshal(raw, &many); err != nil {
			return q, invalidParams("bad topic filter")
		}
		var alts []ethtypes.Hash
		for _, s := range many {
			h, err := parseHash(s)
			if err != nil {
				return q, err
			}
			alts = append(alts, h)
		}
		q.Topics = append(q.Topics, alts)
	}
	return q, nil
}

// parseBlockTag resolves a block-number parameter: a named tag or a hex
// quantity. The devnet seals instantly, so latest/pending/safe/finalized
// all mean the head.
func parseBlockTag(s string, latest uint64) (uint64, error) {
	switch s {
	case "", "latest", "pending", "safe", "finalized":
		return latest, nil
	case "earliest":
		return 0, nil
	default:
		n, err := hexutil.DecodeUint64(s)
		if err != nil {
			return 0, invalidParams("bad block tag %q", s)
		}
		return n, nil
	}
}

// newFilterParam parses the eth_newFilter argument like filterParam but
// also reports whether fromBlock was set to a concrete height — a new
// filter without one only watches blocks sealed after its creation.
func newFilterParam(params []json.RawMessage, i int, latest uint64) (chain.FilterQuery, bool, error) {
	q, err := filterParam(params, i, latest)
	if err != nil {
		return q, false, err
	}
	explicit := false
	if i < len(params) {
		var obj struct {
			FromBlock string `json:"fromBlock"`
		}
		if json.Unmarshal(params[i], &obj) == nil {
			switch obj.FromBlock {
			case "", "latest", "pending":
			default:
				explicit = true
			}
		}
	}
	return q, explicit, nil
}

func parseAddr(s string) (ethtypes.Address, error) {
	raw, err := hexutil.Decode(s)
	if err != nil || len(raw) != 20 {
		return ethtypes.Address{}, invalidParams("bad address %q", s)
	}
	return ethtypes.BytesToAddress(raw), nil
}

func parseHash(s string) (ethtypes.Hash, error) {
	raw, err := hexutil.Decode(s)
	if err != nil || len(raw) != 32 {
		return ethtypes.Hash{}, invalidParams("bad hash %q", s)
	}
	return ethtypes.BytesToHash(raw), nil
}
