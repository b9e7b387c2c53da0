package abi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"

	"legalchain/internal/ethtypes"
	"legalchain/internal/jsonwire"
)

// Method describes a callable function (or the constructor).
type Method struct {
	Name            string
	Inputs          []Arg
	Outputs         []Arg
	StateMutability string // "payable", "nonpayable", "view", "pure"

	// id holds keccak(signature) once ID first needs it, shared by every
	// copy of the method; New gives each method one, and nil marks a
	// literal built elsewhere, which ID answers by hashing.
	id *sigHash
}

// sigHash is keccak(signature), hashed on first use.
type sigHash struct {
	once sync.Once
	h    ethtypes.Hash
}

// of returns keccak(signature()), hashing it on the cell's first use
// only, and on every use of a nil cell.
func (c *sigHash) of(signature func() string) ethtypes.Hash {
	if c == nil {
		return ethtypes.Keccak256([]byte(signature()))
	}
	c.once.Do(func() { c.h = ethtypes.Keccak256([]byte(signature())) })
	return c.h
}

// Signature returns the canonical signature, e.g. "payRent()".
func (m Method) Signature() string {
	parts := make([]string, len(m.Inputs))
	for i, in := range m.Inputs {
		parts[i] = in.Type.String()
	}
	return m.Name + "(" + strings.Join(parts, ",") + ")"
}

// ID returns the 4-byte selector, keccak(signature)[:4]: hashed once
// for a method of an ABI built by New, on every call for a literal.
func (m Method) ID() [4]byte {
	h := m.id.of(m.Signature)
	return [4]byte(h[:4])
}

// ReadOnly reports whether the method can be served by eth_call without
// a transaction.
func (m Method) ReadOnly() bool {
	return m.StateMutability == "view" || m.StateMutability == "pure"
}

// Event describes a log-emitting event.
type Event struct {
	Name      string
	Inputs    []Arg
	Anonymous bool

	// topic holds keccak(signature) once Topic first needs it, shared
	// like Method.id; nil marks a literal.
	topic *sigHash
}

// Signature returns the canonical event signature.
func (e Event) Signature() string {
	parts := make([]string, len(e.Inputs))
	for i, in := range e.Inputs {
		parts[i] = in.Type.String()
	}
	return e.Name + "(" + strings.Join(parts, ",") + ")"
}

// Topic returns keccak(signature), the first log topic of non-anonymous
// events: hashed once for an event of an ABI built by New, on every call
// for a literal.
func (e Event) Topic() ethtypes.Hash {
	return e.topic.of(e.Signature)
}

// ABI is a contract interface: constructor, functions and events.
// Build one with New (ParseJSON and the compiler do), which gives every
// signature a cell that hashes it once, on first use; methods and events
// are not changed afterwards.
type ABI struct {
	Constructor *Method
	Methods     map[string]Method // by name
	Events      map[string]Event  // by name

	byTopic *topicIndex // nil for a literal: EventByTopic scans
}

// topicIndex maps each event's topic to the event, built on the first
// EventByTopic.
type topicIndex struct {
	once sync.Once
	m    map[ethtypes.Hash]Event
}

// New assembles an ABI from its parts and gives every method and event
// a once-cell for its selector or topic, so Pack, DecodeLog and log
// filters hash a signature the first time they need it and never again;
// a verifier that parses an ABI and calls one method hashes one. It
// takes ownership of the maps (nil means empty) and stores the entries
// back into them.
func New(constructor *Method, methods map[string]Method, events map[string]Event) *ABI {
	if methods == nil {
		methods = map[string]Method{}
	}
	if events == nil {
		events = map[string]Event{}
	}
	cells := make([]sigHash, len(methods)+len(events))
	for name, m := range methods {
		m.id, cells = &cells[0], cells[1:]
		methods[name] = m
	}
	for name, e := range events {
		e.topic, cells = &cells[0], cells[1:]
		events[name] = e
	}
	return &ABI{Constructor: constructor, Methods: methods, Events: events, byTopic: new(topicIndex)}
}

// EventByTopic finds an event by its topic hash.
func (a *ABI) EventByTopic(topic ethtypes.Hash) (Event, bool) {
	if t := a.byTopic; t != nil {
		t.once.Do(func() {
			t.m = make(map[ethtypes.Hash]Event, len(a.Events))
			for _, e := range a.Events {
				t.m[e.Topic()] = e
			}
		})
		e, ok := t.m[topic]
		return e, ok
	}
	for _, e := range a.Events {
		if e.Topic() == topic {
			return e, true
		}
	}
	return Event{}, false
}

// Pack encodes a method call: selector followed by encoded arguments.
func (a *ABI) Pack(name string, args ...interface{}) ([]byte, error) {
	m, ok := a.Methods[name]
	if !ok {
		return nil, fmt.Errorf("abi: no method %q", name)
	}
	enc, err := EncodeArgs(m.Inputs, args)
	if err != nil {
		return nil, err
	}
	id := m.ID()
	return append(id[:], enc...), nil
}

// PackConstructor encodes constructor arguments (appended to bytecode).
func (a *ABI) PackConstructor(args ...interface{}) ([]byte, error) {
	if a.Constructor == nil {
		if len(args) != 0 {
			return nil, errors.New("abi: contract has no constructor but args given")
		}
		return nil, nil
	}
	return EncodeArgs(a.Constructor.Inputs, args)
}

// Unpack decodes the return data of a method call.
func (a *ABI) Unpack(name string, data []byte) ([]interface{}, error) {
	m, ok := a.Methods[name]
	if !ok {
		return nil, fmt.Errorf("abi: no method %q", name)
	}
	return DecodeArgs(m.Outputs, data)
}

// DecodedEvent is an event log resolved against the ABI.
type DecodedEvent struct {
	Name string
	Args map[string]interface{}
	Raw  *ethtypes.Log
}

// DecodeLog resolves a log against the contract's events, decoding both
// indexed topics and the data section.
func (a *ABI) DecodeLog(log *ethtypes.Log) (*DecodedEvent, error) {
	if len(log.Topics) == 0 {
		return nil, errors.New("abi: anonymous logs unsupported")
	}
	ev, ok := a.EventByTopic(log.Topics[0])
	if !ok {
		return nil, fmt.Errorf("abi: no event with topic %s", log.Topics[0])
	}
	out := &DecodedEvent{Name: ev.Name, Args: map[string]interface{}{}, Raw: log}
	var dataArgs []Arg
	topicIdx := 1
	for _, in := range ev.Inputs {
		if in.Indexed {
			if topicIdx >= len(log.Topics) {
				return nil, errors.New("abi: missing indexed topic")
			}
			t := log.Topics[topicIdx]
			topicIdx++
			switch in.Type.Kind {
			case KindAddress:
				out.Args[in.Name] = ethtypes.BytesToAddress(t[12:])
			case KindUint, KindInt, KindBool, KindFixedBytes:
				v, err := decodeValue(in.Type, t[:])
				if err != nil {
					return nil, err
				}
				out.Args[in.Name] = v
			default:
				// Dynamic indexed values are stored as their keccak hash.
				out.Args[in.Name] = t
			}
		} else {
			dataArgs = append(dataArgs, in)
		}
	}
	values, err := DecodeArgs(dataArgs, log.Data)
	if err != nil {
		return nil, err
	}
	for i, arg := range dataArgs {
		out.Args[arg.Name] = values[i]
	}
	return out, nil
}

// jsonEntry is one element of the standard JSON ABI array.
type jsonEntry struct {
	Type            string      `json:"type"`
	Name            string      `json:"name,omitempty"`
	Inputs          []jsonParam `json:"inputs,omitempty"`
	Outputs         []jsonParam `json:"outputs,omitempty"`
	StateMutability string      `json:"stateMutability,omitempty"`
	Anonymous       bool        `json:"anonymous,omitempty"`
}

type jsonParam struct {
	Name       string      `json:"name"`
	Type       string      `json:"type"`
	Indexed    bool        `json:"indexed,omitempty"`
	Components []jsonParam `json:"components,omitempty"`
}

// ParseJSON parses a standard JSON ABI document. It accepts what
// encoding/json accepts for the document's shape, and builds the same
// ABI (see package jsonwire).
func ParseJSON(data []byte) (*ABI, error) {
	r := jsonwire.NewReader(data)
	entries := jsonwire.Slice(r, nil, func(e *jsonEntry) { readEntry(r, e) })
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("abi: bad JSON: %w", err)
	}
	return fromEntries(entries)
}

func readEntry(r *jsonwire.Reader, e *jsonEntry) {
	r.Object(func(key []byte) {
		switch {
		case jsonwire.Is(key, "type"):
			r.String(&e.Type)
		case jsonwire.Is(key, "name"):
			r.String(&e.Name)
		case jsonwire.Is(key, "inputs"):
			e.Inputs = readParams(r, e.Inputs)
		case jsonwire.Is(key, "outputs"):
			e.Outputs = readParams(r, e.Outputs)
		case jsonwire.Is(key, "stateMutability"):
			r.String(&e.StateMutability)
		case jsonwire.Is(key, "anonymous"):
			r.Bool(&e.Anonymous)
		default:
			r.Skip()
		}
	})
}

func readParams(r *jsonwire.Reader, ps []jsonParam) []jsonParam {
	return jsonwire.Slice(r, ps, func(p *jsonParam) {
		r.Object(func(key []byte) {
			switch {
			case jsonwire.Is(key, "name"):
				r.String(&p.Name)
			case jsonwire.Is(key, "type"):
				r.String(&p.Type)
			case jsonwire.Is(key, "indexed"):
				r.Bool(&p.Indexed)
			case jsonwire.Is(key, "components"):
				p.Components = readParams(r, p.Components)
			default:
				r.Skip()
			}
		})
	})
}

// fromEntries builds the ABI of a decoded document.
func fromEntries(entries []jsonEntry) (*ABI, error) {
	var ctor *Method
	methods, events := map[string]Method{}, map[string]Event{}
	for _, e := range entries {
		switch e.Type {
		case "function", "":
			inputs, err := parseParams(e.Inputs)
			if err != nil {
				return nil, err
			}
			outputs, err := parseParams(e.Outputs)
			if err != nil {
				return nil, err
			}
			mut := e.StateMutability
			if mut == "" {
				mut = "nonpayable"
			}
			methods[e.Name] = Method{Name: e.Name, Inputs: inputs, Outputs: outputs, StateMutability: mut}
		case "constructor":
			inputs, err := parseParams(e.Inputs)
			if err != nil {
				return nil, err
			}
			mut := e.StateMutability
			if mut == "" {
				mut = "nonpayable"
			}
			ctor = &Method{Name: "", Inputs: inputs, StateMutability: mut}
		case "event":
			inputs, err := parseParams(e.Inputs)
			if err != nil {
				return nil, err
			}
			events[e.Name] = Event{Name: e.Name, Inputs: inputs, Anonymous: e.Anonymous}
		case "fallback", "receive":
			// No dispatch data needed.
		default:
			return nil, fmt.Errorf("abi: unknown entry type %q", e.Type)
		}
	}
	return New(ctor, methods, events), nil
}

func parseParams(params []jsonParam) ([]Arg, error) {
	out := make([]Arg, len(params))
	for i, p := range params {
		var t Type
		var err error
		if strings.HasPrefix(p.Type, "tuple") {
			comps, err := parseParams(p.Components)
			if err != nil {
				return nil, err
			}
			t = TupleOf(comps...)
			if strings.HasSuffix(p.Type, "[]") {
				t = SliceOf(t)
			}
		} else if t, err = ParseType(p.Type); err != nil {
			return nil, err
		}
		out[i] = Arg{Name: p.Name, Type: t, Indexed: p.Indexed}
	}
	return out, nil
}

// MarshalJSON renders the ABI back to the standard JSON format, so
// compiled artifacts can be stored (e.g. in IPFS, as the paper does).
func (a *ABI) MarshalJSON() ([]byte, error) {
	var entries []jsonEntry
	if a.Constructor != nil {
		entries = append(entries, jsonEntry{
			Type:            "constructor",
			Inputs:          renderParams(a.Constructor.Inputs),
			StateMutability: a.Constructor.StateMutability,
		})
	}
	names := make([]string, 0, len(a.Methods))
	for n := range a.Methods {
		names = append(names, n)
	}
	sortStrings(names)
	for _, n := range names {
		m := a.Methods[n]
		entries = append(entries, jsonEntry{
			Type:            "function",
			Name:            m.Name,
			Inputs:          renderParams(m.Inputs),
			Outputs:         renderParams(m.Outputs),
			StateMutability: m.StateMutability,
		})
	}
	evNames := make([]string, 0, len(a.Events))
	for n := range a.Events {
		evNames = append(evNames, n)
	}
	sortStrings(evNames)
	for _, n := range evNames {
		e := a.Events[n]
		entries = append(entries, jsonEntry{
			Type:      "event",
			Name:      e.Name,
			Inputs:    renderParams(e.Inputs),
			Anonymous: e.Anonymous,
		})
	}
	return json.MarshalIndent(entries, "", "  ")
}

func renderParams(args []Arg) []jsonParam {
	out := make([]jsonParam, len(args))
	for i, a := range args {
		p := jsonParam{Name: a.Name, Indexed: a.Indexed}
		if a.Type.Kind == KindTuple {
			p.Type = "tuple"
			p.Components = renderParams(a.Type.Components)
		} else if a.Type.Kind == KindSlice && a.Type.Elem.Kind == KindTuple {
			p.Type = "tuple[]"
			p.Components = renderParams(a.Type.Elem.Components)
		} else {
			p.Type = a.Type.String()
		}
		out[i] = p
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// revertSelector is the selector of Error(string), the canonical revert
// reason encoding.
var revertSelector = Method{Name: "Error", Inputs: []Arg{{Type: StringType}}}.ID()

// PackRevertReason encodes a revert reason string as Error(string).
func PackRevertReason(reason string) []byte {
	enc, _ := EncodeArgs([]Arg{{Name: "message", Type: StringType}}, []interface{}{reason})
	return append(revertSelector[:], enc...)
}

// UnpackRevertReason decodes an Error(string) payload; ok is false when
// the data is not a standard revert reason.
func UnpackRevertReason(data []byte) (string, bool) {
	if len(data) < 4 || !bytes.Equal(data[:4], revertSelector[:]) {
		return "", false
	}
	vals, err := DecodeArgs([]Arg{{Name: "message", Type: StringType}}, data[4:])
	if err != nil {
		return "", false
	}
	s, ok := vals[0].(string)
	return s, ok
}
