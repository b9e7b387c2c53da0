package abi_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"legalchain/internal/abi"
	"legalchain/internal/contracts"
)

// caseStudyArtifacts returns the built-in contracts' names, sorted.
func caseStudyArtifacts() []string {
	var names []string
	for name := range contracts.Sources() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// abiHandCases are the corners of encoding/json's decoding that the
// reader must reproduce, beside the case-study ABIs.
var abiHandCases = []string{
	// Keys match field names under case folding: ſ (long s) folds to s,
	// and K (Kelvin sign) to k, which names no field.
	`[{"TYPE":"function","Name":"f","INPUTS":[{"NAME":"a","tYpE":"uint256"}],"stateMUTABILITY":"view"}]`,
	`[{"type":"function","name":"f","ſtateMutability":"pure","outputs":[{"name":"x","type":"bool"}]}]`,
	`[{"type":"event","name":"E","inputs":[{"name":"a","type":"uint256","indexed":true}],"anonymouſ":true,"K":1}]`,
	`[{"type":"function","name":"f","İnputs":[{"name":"a","type":"uint256"}]}]`,
	// A repeated key decodes again into what the first one left; a
	// shorter array keeps the capacity, whose stale element a longer
	// third one exposes.
	`[{"type":"function","name":"f","inputs":[{"name":"a","type":"uint256"},{"name":"b","type":"bool"}],"inputs":[{"type":"address"}],"name":"g"}]`,
	`[{"type":"function","name":"f","inputs":[{"name":"a","type":"uint256"},{"name":"b","type":"bool"}],"inputs":[{"type":"address"}],"inputs":[{"name":"c"},{"type":"string"}]}]`,
	`[{"type":"function","name":"f","inputs":[{"name":"a","type":"uint256"}],"inputs":[],"inputs":[{"type":"bool"}]}]`,
	`[{"type":"event","name":"E","anonymous":true,"anonymous":false,"Anonymous":null}]`,
	`[{"type":"function","name":"f","name":null,"stateMutability":"view","STATEMUTABILITY":null}]`,
	// null at each level.
	`null`,
	`[null]`,
	`[{"type":"function","name":"f"},null]`,
	`[{"type":null,"name":"f","inputs":null,"outputs":[null],"stateMutability":null}]`,
	`[{"type":"function","name":"f","inputs":[{"name":"a","type":"uint256"}],"inputs":[null,{"name":null,"type":"bool","indexed":null}]}]`,
	`[{"type":"function","name":"f","inputs":[{"name":"t","type":"tuple","components":null}]}]`,
	// Unknown keys, nested, are skipped with their syntax checked.
	`[{"type":"function","name":"f","internalType":{"a":[1,-2.5e+3,{"b":null}],"c":"é"},"inputs":[{"name":"a","type":"uint256","internalType":"uint256"}]}]`,
	`[{"type":"function","name":"f","x":[1,2,]}]`,
	`[{"type":"function","name":"f","x":01}]`,
	// Tuples and arrays of tuples.
	`[{"type":"function","name":"f","inputs":[{"name":"t","type":"tuple","components":[{"name":"a","type":"uint256"},{"name":"b","type":"tuple[]","components":[{"name":"c","type":"address"}]}]}],"outputs":[{"name":"","type":"tuple[]","components":[{"name":"x","type":"bool"}]}]}]`,
	// Escapes, surrogates and invalid UTF-8.
	`[{"type":"function","name":"café😀\t\"\\\/\b\f\n\r"}]`,
	`[{"type":"function","name":"\ud800x\udc00\ud800𐀀"}]`,
	`[{"type":"function","name":"\ud83d\ude00\uD83D\uDE00\u00e9\u0000"}]`,
	"[{\"type\":\"function\",\"name\":\"a\xffb\xed\xa0\x80c\"}]",
	"[{\"ty\xffpe\":\"event\",\"name\":\"E\"}]",
	`[{"type":"function","name":"\x"}]`,
	`[{"type":"function","name":"\u12G4"}]`,
	"[{\"type\":\"function\",\"name\":\"a\x01\"}]",
	// Wrong types anywhere refuse the document.
	`{"type":"function"}`,
	`[{"type":5}]`,
	`[{"anonymous":"true"}]`,
	`[{"inputs":{}}]`,
	`[{"inputs":["uint256"]}]`,
	`[[]]`,
	// Syntax and trailing data.
	``,
	` [] `,
	`[] x`,
	`[]]`,
	"[]\x00",
	`[{"type":"function",}]`,
	`[{"type" "function"}]`,
	`[-]`,
	`[1.]`,
	`[tru]`,
	`"`,
}

// FuzzParseJSON checks ParseJSON, which decodes through package
// jsonwire, against ParseJSONReference, which decodes through
// encoding/json: both accept or both refuse, and what they accept
// builds deep-equal ABIs. The upload page hands user JSON to ParseJSON.
func FuzzParseJSON(f *testing.F) {
	for _, name := range caseStudyArtifacts() {
		f.Add(contracts.MustArtifact(name).ABIJSON)
	}
	for _, c := range abiHandCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := abi.ParseJSON(data)
		want, werr := abi.ParseJSONReference(data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%q: ParseJSON error %v, encoding/json error %v", data, err, werr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: ParseJSON built\n%+v\nencoding/json built\n%+v", data, got, want)
		}
	})
}

// TestParseJSONNestingLimit: arrays and objects nest up to 10 000
// levels, as encoding/json allows, in a value ParseJSON skips.
func TestParseJSONNestingLimit(t *testing.T) {
	for depth, accept := range map[int]bool{10000: true, 10001: false} {
		// The outer array and the entry's object are two levels.
		inner := depth - 2
		doc := []byte(`[{"type":"event","name":"E","x":` + strings.Repeat("[", inner) + strings.Repeat("]", inner) + `}]`)
		_, err := abi.ParseJSON(doc)
		_, werr := abi.ParseJSONReference(doc)
		if (err == nil) != accept || (werr == nil) != accept {
			t.Errorf("depth %d: ParseJSON error %v, encoding/json error %v; want accepted %v", depth, err, werr, accept)
		}
	}
}

// BenchmarkParseJSON parses RentalAgreementV2's published ABI, as a
// cold resolve does.
func BenchmarkParseJSON(b *testing.B) {
	raw := contracts.MustArtifact("RentalAgreementV2").ABIJSON
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := abi.ParseJSON(raw); err != nil {
			b.Fatal(err)
		}
	}
}
