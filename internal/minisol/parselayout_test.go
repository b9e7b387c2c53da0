package minisol_test

import (
	"reflect"
	"sort"
	"testing"

	"legalchain/internal/contracts"
	"legalchain/internal/minisol"
)

// layoutHandCases are the corners of encoding/json's decoding that the
// reader must reproduce, beside the case-study layouts.
var layoutHandCases = []string{
	// Keys match field names under case folding: ſ (long s) folds to s,
	// and K (Kelvin sign) to k, which names no field.
	`{"CONTRACT":"C","Vars":[{"NAME":"a","SLOT":0,"Slots":1,"TYPE":"uint256","PUBLIC":true}]}`,
	`{"contract":"C","vars":[{"name":"a","ſlot":3,"ſlotſ":2,"type":"uint256","publiK":true,"K":1}]}`,
	`{"contract":"C","vars":[{"name":"a","slot":3,"slots":2,"type":"uint256","publİc":true}]}`,
	// A repeated key decodes again into what the first one left.
	`{"contract":"C","vars":[{"name":"a","slot":0,"slots":1,"type":"t"},{"name":"b","slot":1,"slots":1,"type":"t"}],"vars":[{"name":"c"}],"vars":[{"slot":4},{"slots":2}],"contract":"D"}`,
	`{"contract":"C","vars":[{"name":"a","slot":0,"slots":1,"type":"t"}],"vars":[],"vars":[{"name":"b","slots":1}]}`,
	`{"vars":[{"name":"a","slot":5,"slot":0,"slots":1,"public":true,"public":false}]}`,
	// null at each level.
	`null`,
	`{"contract":null,"vars":null}`,
	`{"contract":"C","contract":null,"vars":[]}`,
	`{"contract":"C","vars":[{"name":"a","slot":3,"slot":null,"slots":2,"slots":null,"type":"t","type":null}]}`,
	`{"vars":[null]}`,
	`{"vars":[{"name":"a","slot":0,"slots":1,"type":"t"}],"vars":[null]}`,
	`{"vars":[{"name":"a","slot":null,"slots":1,"type":null,"public":null}]}`,
	// Unknown keys, nested, are skipped with their syntax checked.
	`{"contract":"C","compiler":{"v":[1,2.5e3,true,false,null,"x"]},"vars":[{"name":"a","slot":0,"slots":1,"type":"t","offset":{"x":[]}}]}`,
	`{"contract":"C","x":[01]}`,
	// Integers: range, fractions, exponents, signs.
	`{"vars":[{"name":"a","slot":9223372036854775807,"slots":1}]}`,
	`{"vars":[{"name":"a","slot":9223372036854775808,"slots":1}]}`,
	`{"vars":[{"name":"a","slot":-9223372036854775808,"slots":1}]}`,
	`{"vars":[{"name":"a","slot":-9223372036854775809,"slots":1}]}`,
	`{"vars":[{"name":"a","slot":-0,"slots":1}]}`,
	`{"vars":[{"name":"a","slot":1.0,"slots":1}]}`,
	`{"vars":[{"name":"a","slot":1e0,"slots":1}]}`,
	`{"vars":[{"name":"a","slot":0,"slots":1E+2}]}`,
	`{"vars":[{"name":"a","slot":0.5,"slots":1}]}`,
	`{"vars":[{"name":"a","slot":"1","slots":1}]}`,
	`{"vars":[{"name":"a","slot":-,"slots":1}]}`,
	// Escapes, surrogates and invalid UTF-8.
	`{"contract":"\ud83d\ude00\uD83D\uDE00","vars":[]}`,
	`{"contract":"café😀","vars":[{"name":"\ud800","slot":0,"slots":1,"type":"\udc00\"\\\/\b\f\n\r\t"}]}`,
	"{\"contract\":\"a\xffb\",\"vars\":[{\"name\":\"\xed\xa0\x80\",\"slot\":0,\"slots\":1}]}",
	// Wrong types and syntax.
	`[]`,
	`{"vars":{}}`,
	`{"vars":[[]]}`,
	`{"contract":1}`,
	`{"vars":[{"public":"true"}]}`,
	``,
	`{} x`,
	`{}}`,
	`{"contract":"C",}`,
	`{"contract" "C"}`,
	`{contract:"C"}`,
}

// FuzzParseLayout checks ParseLayout, which decodes through package
// jsonwire, against ParseLayoutReference, which decodes through
// encoding/json: both accept or both refuse, and what they accept is
// deep-equal.
func FuzzParseLayout(f *testing.F) {
	var names []string
	for name := range contracts.Sources() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(contracts.MustArtifact(name).Layout.JSON())
	}
	for _, c := range layoutHandCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := minisol.ParseLayout(raw)
		want, werr := minisol.ParseLayoutReference(raw)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%q: ParseLayout error %v, encoding/json error %v", raw, err, werr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: ParseLayout built\n%+v\nencoding/json built\n%+v", raw, got, want)
		}
	})
}

// BenchmarkParseLayout parses RentalAgreementV2's published layout, as
// a cold walk does.
func BenchmarkParseLayout(b *testing.B) {
	raw := contracts.MustArtifact("RentalAgreementV2").Layout.JSON()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := minisol.ParseLayout(raw); err != nil {
			b.Fatal(err)
		}
	}
}
