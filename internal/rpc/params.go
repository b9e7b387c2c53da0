package rpc

import (
	"strconv"

	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/hexutil"
	"legalchain/internal/jsonwire"
	"legalchain/internal/uint256"
)

// A request's positional parameters are each kept as their raw JSON
// bytes, and each helper below decodes one through jsonwire. A helper
// answers what the encoding/json decode of the same bytes answered, the
// text of its type errors included: the encoding/json helpers are the
// oracle, in params_oracle_test.go.

// kindOf names a JSON value's kind as encoding/json's type errors do.
func kindOf(raw []byte) string {
	switch raw[0] {
	case '"':
		return "string"
	case '{':
		return "object"
	case '[':
		return "array"
	case 't', 'f':
		return "bool"
	}
	return "number"
}

// typeError is the text of encoding/json's UnmarshalTypeError: a value
// of kind decoded into a Go value of type goType, or into field of
// struct typ when field is set.
type typeError struct{ kind, typ, field, goType string }

func (e *typeError) Error() string {
	if e.field != "" {
		return "json: cannot unmarshal " + e.kind + " into Go struct field " + e.typ + "." + e.field + " of type " + e.goType
	}
	return "json: cannot unmarshal " + e.kind + " into Go value of type " + e.goType
}

// decodeString decodes raw as json.Unmarshal into a string does: null
// is the empty string, and any kind but a string is refused.
func decodeString(raw []byte) (string, bool) {
	var s string
	r := jsonwire.NewReader(raw)
	r.String(&s)
	return s, r.Finish() == nil
}

// decodeStrings decodes raw as json.Unmarshal into a []string does,
// or a lone string (null included) as a list of one: a filter's address
// and topic members take either.
func decodeStrings(raw []byte) ([]string, bool) {
	if s, ok := decodeString(raw); ok {
		return []string{s}, true
	}
	r := jsonwire.NewReader(raw)
	ss := jsonwire.Slice(r, nil, func(s *string) { r.String(s) })
	return ss, r.Finish() == nil
}

// decodeObject decodes raw as json.Unmarshal into a struct of type typ
// does: member reads each key's value, and the first type error it
// returns is the answer once the object is read. Null is an object
// without members; any other kind is refused.
func decodeObject(raw []byte, typ string, member func(r *jsonwire.Reader, key []byte) error) error {
	if raw[0] != '{' && raw[0] != 'n' {
		return &typeError{kind: kindOf(raw), goType: "rpc." + typ}
	}
	var first error
	r := jsonwire.NewReader(raw)
	r.Object(func(key []byte) {
		if err := member(r, key); err != nil && first == nil {
			first = err
		}
	})
	if first == nil {
		first = r.Finish()
	}
	return first
}

// stringMember reads the value of field name of struct typ into *dst;
// null leaves *dst as it is.
func stringMember(r *jsonwire.Reader, typ, name string, dst *string) error {
	v := r.Raw()
	if v == nil {
		return nil // the reader's own error, which Finish reports
	}
	s, ok := decodeString(v)
	if !ok {
		return &typeError{kind: kindOf(v), typ: typ, field: name, goType: "string"}
	}
	if v[0] != 'n' {
		*dst = s
	}
	return nil
}

func strParam(params [][]byte, i int) (string, error) {
	if i >= len(params) {
		return "", invalidParams("missing parameter %d", i)
	}
	s, ok := decodeString(params[i])
	if !ok {
		return "", invalidParams("parameter %d: %v", i, &typeError{kind: kindOf(params[i]), goType: "string"})
	}
	return s, nil
}

func addrParam(params [][]byte, i int) (ethtypes.Address, error) {
	s, err := strParam(params, i)
	if err != nil {
		return ethtypes.Address{}, err
	}
	a, err := ethtypes.ParseAddress(s)
	if err != nil {
		return a, invalidParams("parameter %d: bad address", i)
	}
	return a, nil
}

func hashParam(params [][]byte, i int) (ethtypes.Hash, error) {
	s, err := strParam(params, i)
	if err != nil {
		return ethtypes.Hash{}, err
	}
	h, err := ethtypes.ParseHash(s)
	if err != nil {
		return h, invalidParams("parameter %d: bad hash", i)
	}
	return h, nil
}

// boolParam reads an optional boolean parameter, false when absent or
// malformed — the eth_getBlockBy* full-transactions flag.
func boolParam(params [][]byte, i int) bool {
	return i < len(params) && string(params[i]) == "true"
}

// uintParam reads a quantity given as a JSON number (null is 0) or as a
// hex string.
func uintParam(params [][]byte, i int) (uint64, error) {
	if i >= len(params) {
		return 0, invalidParams("missing parameter %d", i)
	}
	if raw := string(params[i]); raw == "null" {
		return 0, nil
	} else if n, err := strconv.ParseUint(raw, 10, 64); err == nil {
		return n, nil
	}
	s, err := strParam(params, i)
	if err != nil {
		return 0, err
	}
	v, err := hexutil.DecodeUint64(s)
	if err != nil {
		return 0, invalidParams("parameter %d: bad quantity", i)
	}
	return v, nil
}

// callObject is the {from,to,gas,gasPrice,value,data,input} parameter
// of eth_call and eth_estimateGas.
type callObject struct {
	from, to, gas, gasPrice, value, data, input string
}

type callMsg struct {
	from  ethtypes.Address
	to    *ethtypes.Address
	gas   uint64
	value uint256.Int
	data  []byte
}

func callParam(params [][]byte, i int) (*callMsg, error) {
	if i >= len(params) {
		return nil, invalidParams("missing call object")
	}
	var obj callObject
	err := decodeObject(params[i], "callObject", func(r *jsonwire.Reader, key []byte) error {
		switch {
		case jsonwire.Is(key, "from"):
			return stringMember(r, "callObject", "from", &obj.from)
		case jsonwire.Is(key, "to"):
			return stringMember(r, "callObject", "to", &obj.to)
		case jsonwire.Is(key, "gas"):
			return stringMember(r, "callObject", "gas", &obj.gas)
		case jsonwire.Is(key, "gasPrice"):
			return stringMember(r, "callObject", "gasPrice", &obj.gasPrice)
		case jsonwire.Is(key, "value"):
			return stringMember(r, "callObject", "value", &obj.value)
		case jsonwire.Is(key, "data"):
			return stringMember(r, "callObject", "data", &obj.data)
		case jsonwire.Is(key, "input"):
			return stringMember(r, "callObject", "input", &obj.input)
		}
		r.Skip()
		return nil
	})
	if err != nil {
		return nil, invalidParams("bad call object: %v", err)
	}
	msg := &callMsg{}
	if obj.from != "" {
		if msg.from, err = ethtypes.ParseAddress(obj.from); err != nil {
			return nil, invalidParams("bad from address")
		}
	}
	if obj.to != "" {
		to, err := ethtypes.ParseAddress(obj.to)
		if err != nil {
			return nil, invalidParams("bad to address")
		}
		msg.to = &to
	}
	if obj.gas != "" {
		g, err := hexutil.DecodeUint64(obj.gas)
		if err != nil {
			return nil, invalidParams("bad gas")
		}
		msg.gas = g
	}
	if obj.value != "" {
		v, err := hexutil.DecodeBig(obj.value)
		if err != nil {
			return nil, invalidParams("bad value")
		}
		msg.value = uint256.FromBig(v)
	}
	dataHex := obj.data
	if dataHex == "" {
		dataHex = obj.input
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

// filterObject is the eth_getLogs and eth_newFilter parameter: the
// block range as tags, and the address and topic criteria as raw JSON.
type filterObject struct {
	fromBlock, toBlock string
	address            []byte
	topics             [][]byte
}

func decodeFilter(raw []byte) (filterObject, error) {
	var obj filterObject
	err := decodeObject(raw, "filterObject", func(r *jsonwire.Reader, key []byte) error {
		switch {
		case jsonwire.Is(key, "fromBlock"):
			return stringMember(r, "filterObject", "fromBlock", &obj.fromBlock)
		case jsonwire.Is(key, "toBlock"):
			return stringMember(r, "filterObject", "toBlock", &obj.toBlock)
		case jsonwire.Is(key, "address"):
			obj.address = r.Raw()
		case jsonwire.Is(key, "topics"):
			v := r.Raw()
			if v == nil {
				return nil
			}
			if v[0] != '[' && v[0] != 'n' {
				return &typeError{kind: kindOf(v), typ: "filterObject", field: "topics", goType: "[]json.RawMessage"}
			}
			tr := jsonwire.NewReader(v)
			obj.topics = jsonwire.Slice(tr, obj.topics, func(t *[]byte) { *t = tr.Raw() })
		default:
			r.Skip()
		}
		return nil
	})
	return obj, err
}

func filterParam(params [][]byte, i int, latest uint64) (chain.FilterQuery, error) {
	q, _, err := newFilterParam(params, i, latest)
	return q, err
}

// newFilterParam parses the eth_newFilter argument like filterParam but
// also reports whether fromBlock was set to a concrete height — a new
// filter without one only watches blocks sealed after its creation.
func newFilterParam(params [][]byte, i int, latest uint64) (chain.FilterQuery, bool, error) {
	q := chain.FilterQuery{}
	if i >= len(params) {
		return q, false, nil
	}
	obj, err := decodeFilter(params[i])
	if err != nil {
		return q, false, invalidParams("bad filter object: %v", err)
	}
	if obj.fromBlock != "" {
		if q.FromBlock, err = parseBlockTag(obj.fromBlock, latest); err != nil {
			return q, false, err
		}
	}
	if obj.toBlock != "" {
		to, err := parseBlockTag(obj.toBlock, latest)
		if err != nil {
			return q, false, err
		}
		q.ToBlock = &to
	}
	// address: string or array of strings.
	if len(obj.address) > 0 {
		many, ok := decodeStrings(obj.address)
		if !ok {
			return q, false, invalidParams("bad address filter")
		}
		for _, s := range many {
			a, err := ethtypes.ParseAddress(s)
			if err != nil {
				return q, false, invalidParams("bad address %q", s)
			}
			q.Addresses = append(q.Addresses, a)
		}
	}
	// topics: array of (null | string | array of strings).
	for _, raw := range obj.topics {
		if string(raw) == "null" {
			q.Topics = append(q.Topics, nil)
			continue
		}
		many, ok := decodeStrings(raw)
		if !ok {
			return q, false, invalidParams("bad topic filter")
		}
		var alts []ethtypes.Hash
		for _, s := range many {
			h, err := ethtypes.ParseHash(s)
			if err != nil {
				return q, false, invalidParams("bad hash %q", s)
			}
			alts = append(alts, h)
		}
		q.Topics = append(q.Topics, alts)
	}
	switch obj.fromBlock {
	case "", "latest", "pending":
		return q, false, nil
	}
	return q, true, nil
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
