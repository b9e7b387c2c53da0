package rpc

import (
	"encoding/json"
	"errors"
	"reflect"
	"strconv"
	"testing"

	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/hexutil"
	"legalchain/internal/uint256"
)

// The param helpers as they decoded through encoding/json: the oracle of
// the jsonwire helpers in params.go and trace.go, error text included.

type callObjectReference struct {
	From     string `json:"from"`
	To       string `json:"to"`
	Gas      string `json:"gas"`
	GasPrice string `json:"gasPrice"`
	Value    string `json:"value"`
	Data     string `json:"data"`
	Input    string `json:"input"`
}

type filterObjectReference struct {
	FromBlock string            `json:"fromBlock"`
	ToBlock   string            `json:"toBlock"`
	Address   json.RawMessage   `json:"address"`
	Topics    []json.RawMessage `json:"topics"`
}

type traceConfigReference struct {
	Tracer string `json:"tracer"`
}

// referenceNames maps the reference structs' names to the names of the
// structs they mirror, which encoding/json's errors named before the
// reader took over.
var referenceNames = map[string]string{
	"callObjectReference":       "callObject",
	"rpc.callObjectReference":   "rpc.callObject",
	"filterObjectReference":     "filterObject",
	"rpc.filterObjectReference": "rpc.filterObject",
	"traceConfigReference":      "traceConfig",
	"rpc.traceConfigReference":  "rpc.traceConfig",
}

// unmarshalReference is json.Unmarshal with the reference structs' names
// in a type error replaced by the names of the structs they mirror.
func unmarshalReference(raw []byte, v interface{}) error {
	err := json.Unmarshal(raw, v)
	var te *json.UnmarshalTypeError
	if !errors.As(err, &te) {
		return err
	}
	renamed := *te
	if name, ok := referenceNames[te.Struct]; ok {
		renamed.Struct = name
	}
	if name, ok := referenceNames[te.Type.String()]; ok {
		return errors.New("json: cannot unmarshal " + te.Value + " into Go value of type " + name)
	}
	return &renamed
}

func strParamReference(params []json.RawMessage, i int) (string, error) {
	if i >= len(params) {
		return "", invalidParams("missing parameter %d", i)
	}
	var s string
	if err := unmarshalReference(params[i], &s); err != nil {
		return "", invalidParams("parameter %d: %v", i, err)
	}
	return s, nil
}

func addrParamReference(params []json.RawMessage, i int) (ethtypes.Address, error) {
	s, err := strParamReference(params, i)
	if err != nil {
		return ethtypes.Address{}, err
	}
	raw, err := hexutil.Decode(s)
	if err != nil || len(raw) != 20 {
		return ethtypes.Address{}, invalidParams("parameter %d: bad address", i)
	}
	return ethtypes.BytesToAddress(raw), nil
}

func hashParamReference(params []json.RawMessage, i int) (ethtypes.Hash, error) {
	s, err := strParamReference(params, i)
	if err != nil {
		return ethtypes.Hash{}, err
	}
	raw, err := hexutil.Decode(s)
	if err != nil || len(raw) != 32 {
		return ethtypes.Hash{}, invalidParams("parameter %d: bad hash", i)
	}
	return ethtypes.BytesToHash(raw), nil
}

// parseAddrReference and parseHashReference are the filter's address
// and topic decoders as they stood before ethtypes.ParseAddress and
// ParseHash, error text included.
func parseAddrReference(s string) (ethtypes.Address, error) {
	raw, err := hexutil.Decode(s)
	if err != nil || len(raw) != 20 {
		return ethtypes.Address{}, invalidParams("bad address %q", s)
	}
	return ethtypes.BytesToAddress(raw), nil
}

func parseHashReference(s string) (ethtypes.Hash, error) {
	raw, err := hexutil.Decode(s)
	if err != nil || len(raw) != 32 {
		return ethtypes.Hash{}, invalidParams("bad hash %q", s)
	}
	return ethtypes.BytesToHash(raw), nil
}

func boolParamReference(params []json.RawMessage, i int) bool {
	if i >= len(params) {
		return false
	}
	var b bool
	json.Unmarshal(params[i], &b)
	return b
}

func uintParamReference(params []json.RawMessage, i int) (uint64, error) {
	if i >= len(params) {
		return 0, invalidParams("missing parameter %d", i)
	}
	var n uint64
	if err := json.Unmarshal(params[i], &n); err == nil {
		return n, nil
	}
	s, err := strParamReference(params, i)
	if err != nil {
		return 0, err
	}
	v, err := hexutil.DecodeUint64(s)
	if err != nil {
		return 0, invalidParams("parameter %d: bad quantity", i)
	}
	return v, nil
}

func callParamReference(params []json.RawMessage, i int) (*callMsg, error) {
	if i >= len(params) {
		return nil, invalidParams("missing call object")
	}
	var obj callObjectReference
	if err := unmarshalReference(params[i], &obj); err != nil {
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

func filterParamReference(params []json.RawMessage, i int, latest uint64) (chain.FilterQuery, error) {
	q := chain.FilterQuery{}
	if i >= len(params) {
		return q, nil
	}
	var obj filterObjectReference
	if err := unmarshalReference(params[i], &obj); err != nil {
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
	if len(obj.Address) > 0 {
		var one string
		if err := json.Unmarshal(obj.Address, &one); err == nil {
			a, err := parseAddrReference(one)
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
				a, err := parseAddrReference(s)
				if err != nil {
					return q, err
				}
				q.Addresses = append(q.Addresses, a)
			}
		}
	}
	for _, raw := range obj.Topics {
		if string(raw) == "null" {
			q.Topics = append(q.Topics, nil)
			continue
		}
		var one string
		if err := json.Unmarshal(raw, &one); err == nil {
			h, err := parseHashReference(one)
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
			h, err := parseHashReference(s)
			if err != nil {
				return q, err
			}
			alts = append(alts, h)
		}
		q.Topics = append(q.Topics, alts)
	}
	return q, nil
}

func newFilterParamReference(params []json.RawMessage, i int, latest uint64) (chain.FilterQuery, bool, error) {
	q, err := filterParamReference(params, i, latest)
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

func traceConfigParamReference(params []json.RawMessage, i int) (traceConfigReference, error) {
	var cfg traceConfigReference
	if i >= len(params) || string(params[i]) == "null" {
		return cfg, nil
	}
	if err := unmarshalReference(params[i], &cfg); err != nil {
		return cfg, invalidParams("parameter %d: bad tracer config: %v", i, err)
	}
	switch cfg.Tracer {
	case "", "structLog", "callTracer":
		return cfg, nil
	default:
		return cfg, invalidParams("parameter %d: unknown tracer %q", i, cfg.Tracer)
	}
}

// errText is an error as the wire shows it.
func errText(err error) string {
	if err == nil {
		return ""
	}
	e := toRPCError(err)
	return strconv.Itoa(e.Code) + " " + e.Message
}

// checkParams decodes every parameter position of params, one past the
// end included, with each jsonwire helper and its encoding/json oracle.
func checkParams(t *testing.T, params []json.RawMessage) {
	t.Helper()
	raws := make([][]byte, len(params))
	for i, p := range params {
		raws[i] = p
	}
	same := func(what string, i int, got, want interface{}, gotErr, wantErr error) {
		t.Helper()
		if errText(gotErr) != errText(wantErr) || (gotErr == nil && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%s(%d) of %q:\n got %#v, %q\nwant %#v, %q", what, i, params, got, errText(gotErr), want, errText(wantErr))
		}
	}
	for i := 0; i <= len(params); i++ {
		s, err := strParam(raws, i)
		ws, werr := strParamReference(params, i)
		same("strParam", i, s, ws, err, werr)
		a, err := addrParam(raws, i)
		wa, werr := addrParamReference(params, i)
		same("addrParam", i, a, wa, err, werr)
		h, err := hashParam(raws, i)
		wh, werr := hashParamReference(params, i)
		same("hashParam", i, h, wh, err, werr)
		same("boolParam", i, boolParam(raws, i), boolParamReference(params, i), nil, nil)
		n, err := uintParam(raws, i)
		wn, werr := uintParamReference(params, i)
		same("uintParam", i, n, wn, err, werr)
		m, err := callParam(raws, i)
		wm, werr := callParamReference(params, i)
		same("callParam", i, m, wm, err, werr)
		q, explicit, err := newFilterParam(raws, i, 9)
		wq, wexplicit, werr := newFilterParamReference(params, i, 9)
		same("newFilterParam", i, []interface{}{q, explicit}, []interface{}{wq, wexplicit}, err, werr)
		fq, err := filterParam(raws, i, 9)
		wfq, werr := filterParamReference(params, i, 9)
		same("filterParam", i, fq, wfq, err, werr)
		cfg, err := traceConfigParam(raws, i)
		wcfg, werr := traceConfigParamReference(params, i)
		same("traceConfigParam", i, cfg.tracer, wcfg.Tracer, err, werr)
	}
}
