package minisol

import (
	"encoding/json"
	"fmt"
)

// ParseLayoutReference is ParseLayout decoding through encoding/json, as
// it did before package jsonwire: the oracle of FuzzParseLayout.
func ParseLayoutReference(raw []byte) (*Layout, error) {
	var l Layout
	if err := json.Unmarshal(raw, &l); err != nil {
		return nil, fmt.Errorf("minisol: bad layout JSON: %w", err)
	}
	if err := l.check(); err != nil {
		return nil, err
	}
	return &l, nil
}
