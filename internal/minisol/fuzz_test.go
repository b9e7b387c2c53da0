package minisol

import (
	"bytes"
	"strings"
	"testing"

	"legalchain/internal/abi"
)

// FuzzCompile feeds hostile source to the compiler, as the upload page
// does (app.App.CompileArtifact calls CompileContract, which is Compile
// plus a lookup by name). Compiling must not panic, and every compiled
// artifact must carry an ABI that parses and a layout whose JSON parses
// back with ParseLayout to the same JSON: the manager publishes both and
// reads them back when it binds or guards a version. The committed
// corpus holds the case-study sources, truncations of them, and nested
// inputs.
func FuzzCompile(f *testing.F) {
	f.Add(`contract Tiny { uint public x; function set(uint v) public { x = v; } }`)
	f.Fuzz(func(t *testing.T, src string) {
		arts, err := Compile(src)
		if err != nil {
			return
		}
		for _, art := range arts {
			if _, err := abi.ParseJSON(art.ABIJSON); err != nil {
				t.Fatalf("%s: ABI JSON does not parse: %v\n%s", art.Name, err, art.ABIJSON)
			}
			if art.Layout == nil {
				continue
			}
			raw := art.Layout.JSON()
			back, err := ParseLayout(raw)
			if err != nil {
				t.Fatalf("%s: layout JSON does not parse back: %v\n%s", art.Name, err, raw)
			}
			if again := back.JSON(); !bytes.Equal(again, raw) {
				t.Fatalf("%s: layout JSON changed in a round trip:\n%s\n%s", art.Name, raw, again)
			}
		}
	})
}

// TestCompileErrorsOutsideContracts: a parse error outside any contract
// body (here an unterminated pragma) is an error, not a panic. FuzzCompile
// found the panic.
func TestCompileErrorsOutsideContracts(t *testing.T) {
	for _, src := range []string{"pragma", "pragma solidity ^0.5.0", "pragma solidity; contract"} {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) accepted", src)
		}
	}
}

// TestIdentifiersAreASCII: a byte of a multi-byte UTF-8 sequence starts
// no identifier. The lexer used to read each byte as a Latin-1 letter, so
// a contract named "\xf9" compiled, and its name did not survive the
// layout's JSON. FuzzCompile found it.
func TestIdentifiersAreASCII(t *testing.T) {
	for _, src := range []string{
		"contract \xf9 { uint public x; }",
		"contract Café { uint public x; }",
		"contract C { uint public \xc3\xa9; }",
	} {
		if _, err := Compile(src); err == nil || !strings.Contains(err.Error(), "unexpected character") {
			t.Errorf("Compile(%q) = %v, want an unexpected-character error", src, err)
		}
	}
	if _, err := Compile("contract C_$9 { uint public $x_1; }"); err != nil {
		t.Fatalf("ASCII identifiers refused: %v", err)
	}
}
