package main

import (
	"reflect"
	"testing"
)

const doc = "Prose mentions `legalchain_prose_only`.\n\n" +
	"| Metric | Type | Description |\n" +
	"|---|---|---|\n" +
	"| `legalchain_a_total` | counter | A. |\n" +
	"| `legalchain_b_seconds` | histogram | B. |\n"

func TestDriftRegisteredWithoutRow(t *testing.T) {
	missing, stale := drift([]string{"legalchain_a_total", "legalchain_b_seconds", "legalchain_prose_only", "legalchain_c"}, doc)
	if want := []string{"legalchain_c", "legalchain_prose_only"}; !reflect.DeepEqual(missing, want) {
		t.Errorf("missing = %v, want %v", missing, want)
	}
	if len(stale) != 0 {
		t.Errorf("stale = %v, want none", stale)
	}
}

func TestDriftRowWithoutRegistration(t *testing.T) {
	missing, stale := drift([]string{"legalchain_a_total"}, doc)
	if len(missing) != 0 {
		t.Errorf("missing = %v, want none", missing)
	}
	if want := []string{"legalchain_b_seconds"}; !reflect.DeepEqual(stale, want) {
		t.Errorf("stale = %v, want %v", stale, want)
	}
}
