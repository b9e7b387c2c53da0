package abi

import (
	"encoding/json"
	"fmt"
)

// ParseJSONReference is ParseJSON decoding through encoding/json, as it
// did before package jsonwire: the oracle of FuzzParseJSON.
func ParseJSONReference(data []byte) (*ABI, error) {
	var entries []jsonEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("abi: bad JSON: %w", err)
	}
	return fromEntries(entries)
}
