package abi

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
)

func TestSelectorKnown(t *testing.T) {
	m := Method{Name: "transfer", Inputs: []Arg{
		{Name: "to", Type: AddressType},
		{Name: "value", Type: Uint256Type},
	}}
	if m.Signature() != "transfer(address,uint256)" {
		t.Fatalf("signature = %s", m.Signature())
	}
	id := m.ID()
	if hex.EncodeToString(id[:]) != "a9059cbb" {
		t.Fatalf("selector = %x, want a9059cbb", id)
	}
	// baz(uint32,bool) from the Solidity ABI spec examples.
	baz := Method{Name: "baz", Inputs: []Arg{
		{Type: Type{Kind: KindUint, Bits: 32}},
		{Type: BoolType},
	}}
	bid := baz.ID()
	if hex.EncodeToString(bid[:]) != "cdcd77c0" {
		t.Fatalf("baz selector = %x, want cdcd77c0", bid)
	}
}

// The canonical example from the Solidity ABI spec:
// baz(69, true) encodes to two padded words.
func TestSpecStaticEncoding(t *testing.T) {
	enc, err := EncodeArgs([]Arg{
		{Type: Type{Kind: KindUint, Bits: 32}},
		{Type: BoolType},
	}, []interface{}{uint64(69), true})
	if err != nil {
		t.Fatal(err)
	}
	want := "0000000000000000000000000000000000000000000000000000000000000045" +
		"0000000000000000000000000000000000000000000000000000000000000001"
	if hex.EncodeToString(enc) != want {
		t.Fatalf("encoding = %x", enc)
	}
}

// sam("dave", true, [1,2,3]) from the Solidity spec (dynamic types).
func TestSpecDynamicEncoding(t *testing.T) {
	enc, err := EncodeArgs([]Arg{
		{Type: BytesType},
		{Type: BoolType},
		{Type: SliceOf(Uint256Type)},
	}, []interface{}{[]byte("dave"), true, []interface{}{uint64(1), uint64(2), uint64(3)}})
	if err != nil {
		t.Fatal(err)
	}
	want := "0000000000000000000000000000000000000000000000000000000000000060" +
		"0000000000000000000000000000000000000000000000000000000000000001" +
		"00000000000000000000000000000000000000000000000000000000000000a0" +
		"0000000000000000000000000000000000000000000000000000000000000004" +
		"6461766500000000000000000000000000000000000000000000000000000000" +
		"0000000000000000000000000000000000000000000000000000000000000003" +
		"0000000000000000000000000000000000000000000000000000000000000001" +
		"0000000000000000000000000000000000000000000000000000000000000002" +
		"0000000000000000000000000000000000000000000000000000000000000003"
	if hex.EncodeToString(enc) != want {
		t.Fatalf("encoding mismatch:\n got %x", enc)
	}
}

func sampleArgs() []Arg {
	return []Arg{
		{Name: "a", Type: Uint256Type},
		{Name: "b", Type: AddressType},
		{Name: "c", Type: BoolType},
		{Name: "d", Type: StringType},
		{Name: "e", Type: BytesType},
		{Name: "f", Type: SliceOf(Uint256Type)},
	}
}

func sampleValues(r *rand.Rand) []interface{} {
	n := r.Intn(5)
	slice := make([]interface{}, n)
	for i := range slice {
		slice[i] = uint256.NewUint64(r.Uint64())
	}
	buf := make([]byte, r.Intn(70))
	r.Read(buf)
	var a ethtypes.Address
	r.Read(a[:])
	return []interface{}{
		uint256.Int{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()},
		a,
		r.Intn(2) == 0,
		string(buf[:len(buf)/2]),
		buf,
		slice,
	}
}

// Property: decode(encode(x)) == x across random values.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	args := sampleArgs()
	for i := 0; i < 300; i++ {
		vals := sampleValues(r)
		enc, err := EncodeArgs(args, vals)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeArgs(args, enc)
		if err != nil {
			t.Fatal(err)
		}
		if back[0].(uint256.Int) != vals[0].(uint256.Int) {
			t.Fatal("uint mismatch")
		}
		if back[1].(ethtypes.Address) != vals[1].(ethtypes.Address) {
			t.Fatal("address mismatch")
		}
		if back[2].(bool) != vals[2].(bool) {
			t.Fatal("bool mismatch")
		}
		if back[3].(string) != vals[3].(string) {
			t.Fatal("string mismatch")
		}
		if !bytes.Equal(back[4].([]byte), vals[4].([]byte)) {
			t.Fatal("bytes mismatch")
		}
		gotSlice := back[5].([]interface{})
		wantSlice := vals[5].([]interface{})
		if len(gotSlice) != len(wantSlice) {
			t.Fatal("slice length mismatch")
		}
		for j := range gotSlice {
			if gotSlice[j].(uint256.Int) != wantSlice[j].(uint256.Int) {
				t.Fatal("slice element mismatch")
			}
		}
	}
}

func TestTupleEncoding(t *testing.T) {
	// struct PaidRent { uint Monthid; uint value; } — the paper's type.
	paidRent := TupleOf(
		Arg{Name: "Monthid", Type: Uint256Type},
		Arg{Name: "value", Type: Uint256Type},
	)
	args := []Arg{{Name: "rent", Type: paidRent}}
	vals := []interface{}{[]interface{}{uint64(3), uint64(1500)}}
	enc, err := EncodeArgs(args, vals)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != 64 {
		t.Fatalf("static tuple must be 64 bytes, got %d", len(enc))
	}
	back, err := DecodeArgs(args, enc)
	if err != nil {
		t.Fatal(err)
	}
	tup := back[0].([]interface{})
	if tup[0].(uint256.Int).Uint64() != 3 || tup[1].(uint256.Int).Uint64() != 1500 {
		t.Fatal("tuple round trip failed")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	doc := `[
	  {"type":"constructor","inputs":[{"name":"_rent","type":"uint256"},{"name":"_house","type":"string"}],"stateMutability":"payable"},
	  {"type":"function","name":"payRent","inputs":[],"outputs":[],"stateMutability":"payable"},
	  {"type":"function","name":"getNext","inputs":[],"outputs":[{"name":"addr","type":"address"}],"stateMutability":"view"},
	  {"type":"event","name":"paidRent","inputs":[{"name":"tenant","type":"address","indexed":true},{"name":"amount","type":"uint256","indexed":false}]}
	]`
	a, err := ParseJSON([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if a.Constructor == nil || len(a.Constructor.Inputs) != 2 {
		t.Fatal("constructor not parsed")
	}
	if a.Methods["payRent"].StateMutability != "payable" {
		t.Fatal("payRent must be payable")
	}
	if !a.Methods["getNext"].ReadOnly() {
		t.Fatal("getNext must be view")
	}
	if _, ok := a.Events["paidRent"]; !ok {
		t.Fatal("event not parsed")
	}
	// Round trip through MarshalJSON.
	out, err := a.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := ParseJSON(out)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Methods["payRent"].ID() != a.Methods["payRent"].ID() {
		t.Fatal("selector changed across JSON round trip")
	}
	if a2.Events["paidRent"].Topic() != a.Events["paidRent"].Topic() {
		t.Fatal("topic changed across JSON round trip")
	}
}

func TestPackUnpack(t *testing.T) {
	doc := `[{"type":"function","name":"setRent","inputs":[{"name":"amount","type":"uint256"}],"outputs":[{"name":"ok","type":"bool"}]}]`
	a, err := ParseJSON([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	data, err := a.Pack("setRent", uint64(1500))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 4+32 {
		t.Fatalf("packed length = %d", len(data))
	}
	in, err := DecodeArgs(a.Methods["setRent"].Inputs, data[4:])
	if err != nil || in[0].(uint256.Int).Uint64() != 1500 {
		t.Fatal("input unpack failed")
	}
	if _, err := a.Pack("nope"); err == nil {
		t.Fatal("unknown method accepted")
	}
	// Outputs.
	ret, _ := EncodeArgs(a.Methods["setRent"].Outputs, []interface{}{true})
	vals, err := a.Unpack("setRent", ret)
	if err != nil || vals[0].(bool) != true {
		t.Fatal("output unpack failed")
	}
}

func TestDecodeLog(t *testing.T) {
	doc := `[{"type":"event","name":"paidRent","inputs":[
	  {"name":"tenant","type":"address","indexed":true},
	  {"name":"month","type":"uint256","indexed":false},
	  {"name":"amount","type":"uint256","indexed":false}]}]`
	a, err := ParseJSON([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	ev := a.Events["paidRent"]
	tenant := ethtypes.HexToAddress("0x00000000000000000000000000000000000000aa")
	data, _ := EncodeArgs([]Arg{
		{Name: "month", Type: Uint256Type},
		{Name: "amount", Type: Uint256Type},
	}, []interface{}{uint64(2), uint64(1500)})
	var topicAddr ethtypes.Hash
	copy(topicAddr[12:], tenant[:])
	log := &ethtypes.Log{
		Topics: []ethtypes.Hash{ev.Topic(), topicAddr},
		Data:   data,
	}
	dec, err := a.DecodeLog(log)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Name != "paidRent" {
		t.Fatal("event name")
	}
	if dec.Args["tenant"].(ethtypes.Address) != tenant {
		t.Fatal("indexed address")
	}
	if dec.Args["amount"].(uint256.Int).Uint64() != 1500 {
		t.Fatal("data arg")
	}
}

func TestRevertReason(t *testing.T) {
	payload := PackRevertReason("Only the landlord can terminate")
	got, ok := UnpackRevertReason(payload)
	if !ok || got != "Only the landlord can terminate" {
		t.Fatalf("revert reason round trip: %q %v", got, ok)
	}
	if _, ok := UnpackRevertReason([]byte{1, 2, 3}); ok {
		t.Fatal("garbage accepted as revert reason")
	}
}

// lengthWraps is an Error(string) body whose length word is 2⁶⁴−1:
// 32 + length wraps to 31, so a bound written as 32+n ≤ len passes and
// the slice [32:31] panics.
func lengthWraps() []byte {
	data := make([]byte, 64)
	data[31] = 0x20
	for i := 56; i < 64; i++ {
		data[i] = 0xff
	}
	return data
}

func TestRevertReasonLengthWraps(t *testing.T) {
	payload := append(append([]byte(nil), revertSelector[:]...), lengthWraps()...)
	if r, ok := UnpackRevertReason(payload); ok {
		t.Fatalf("wrapping length decoded as %q", r)
	}
	// The same length word as a slice count.
	if _, err := DecodeArgs([]Arg{{Type: SliceOf(Uint256Type)}}, lengthWraps()); err == nil {
		t.Fatal("slice count 2⁶⁴−1 accepted")
	}
}

func TestParseTypeErrors(t *testing.T) {
	for _, s := range []string{"uint7", "uint512", "int0", "bytes0", "bytes33", "map", "uint256[][]x"} {
		if _, err := ParseType(s); err == nil {
			t.Errorf("ParseType(%q) accepted", s)
		}
	}
	// Nested slices are fine.
	tt, err := ParseType("uint256[][]")
	if err != nil || tt.Kind != KindSlice || tt.Elem.Kind != KindSlice {
		t.Error("nested slice parse failed")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	args := []Arg{{Type: StringType}}
	enc, _ := EncodeArgs(args, []interface{}{"hello world"})
	for cut := 1; cut < len(enc); cut += 7 {
		if _, err := DecodeArgs(args, enc[:len(enc)-cut]); err == nil {
			// Truncation within padding can be legal; a wrong value must not appear.
			vals, _ := DecodeArgs(args, enc[:len(enc)-cut])
			if len(vals) == 1 {
				if s, ok := vals[0].(string); ok && s != "hello world" && s != "" {
					t.Fatalf("truncated decode produced garbage %q", s)
				}
			}
		}
	}
	// Malicious offset.
	bad := make([]byte, 32)
	bad[0] = 0xff
	if _, err := DecodeArgs(args, bad); err == nil {
		t.Fatal("huge offset accepted")
	}
}

func BenchmarkPackCall(b *testing.B) {
	doc := `[{"type":"function","name":"setRent","inputs":[{"name":"amount","type":"uint256"},{"name":"house","type":"string"}]}]`
	a, _ := ParseJSON([]byte(doc))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.Pack("setRent", uint64(i), "12345-Main-St"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeRandomNeverPanics: arbitrary bytes against every supported
// type must error or decode, never panic.
func TestDecodeRandomNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(808))
	types := []Type{
		Uint256Type, AddressType, BoolType, StringType, BytesType,
		Bytes32Type, SliceOf(Uint256Type), SliceOf(StringType),
		TupleOf(Arg{Name: "a", Type: Uint256Type}, Arg{Name: "s", Type: StringType}),
	}
	for i := 0; i < 2000; i++ {
		buf := make([]byte, r.Intn(256))
		r.Read(buf)
		tt := types[r.Intn(len(types))]
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic on type %s with %x: %v", tt, buf, p)
				}
			}()
			DecodeArgs([]Arg{{Name: "x", Type: tt}}, buf)
		}()
	}
}

// fuzzArgs are the argument lists FuzzDecodeArgs decodes every input
// against: each length-prefixed kind, slices and tuples of them nested,
// and static words beside a dynamic member.
var fuzzArgs = [][]Arg{
	{{Name: "s", Type: StringType}},
	{{Name: "b", Type: BytesType}},
	{{Name: "xs", Type: SliceOf(Uint256Type)}},
	{{Name: "ss", Type: SliceOf(StringType)}},
	{{Name: "t", Type: TupleOf(Arg{Name: "a", Type: Uint256Type}, Arg{Name: "s", Type: StringType})}},
	{{Name: "ts", Type: SliceOf(TupleOf(Arg{Name: "b", Type: BytesType}, Arg{Name: "xs", Type: SliceOf(Uint256Type)}))}},
	{{Name: "a", Type: AddressType}, {Name: "ok", Type: BoolType}, {Name: "h", Type: Bytes32Type}, {Name: "s", Type: StringType}},
}

// FuzzDecodeArgs feeds hostile bytes to DecodeArgs for every list in
// fuzzArgs. Decoding must not panic, and whatever decodes must survive
// a round trip: decode(encode(v)) == v.
func FuzzDecodeArgs(f *testing.F) {
	f.Add(lengthWraps())
	for _, seed := range []struct {
		args []Arg
		vals []interface{}
	}{
		{fuzzArgs[0], []interface{}{"hello world"}},
		{fuzzArgs[3], []interface{}{[]interface{}{"a", ""}}},
		{fuzzArgs[5], []interface{}{[]interface{}{
			[]interface{}{[]byte("deposit"), []interface{}{uint256.NewUint64(7)}},
			[]interface{}{[]byte{}, []interface{}{}},
		}}},
		{fuzzArgs[6], []interface{}{ethtypes.Address{1}, true, make([]byte, 32), "rent"}},
	} {
		enc, err := EncodeArgs(seed.args, seed.vals)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, args := range fuzzArgs {
			vals, err := DecodeArgs(args, data)
			if err != nil {
				continue
			}
			enc, err := EncodeArgs(args, vals)
			if err != nil {
				t.Fatalf("%v: decoded %v, which does not encode: %v", args, vals, err)
			}
			again, err := DecodeArgs(args, enc)
			if err != nil || !reflect.DeepEqual(again, vals) {
				t.Fatalf("%v: decode(encode(%v)) = %v, %v", args, vals, again, err)
			}
		}
	})
}
