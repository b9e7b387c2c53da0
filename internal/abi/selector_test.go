package abi

import (
	"sync"
	"testing"

	"legalchain/internal/ethtypes"
)

const selectorDoc = `[
  {"type":"constructor","inputs":[{"name":"_rent","type":"uint256"}],"stateMutability":"payable"},
  {"type":"function","name":"payRent","inputs":[],"outputs":[],"stateMutability":"payable"},
  {"type":"function","name":"setNext","inputs":[{"name":"_next","type":"address"}],"outputs":[]},
  {"type":"function","name":"paidrents","inputs":[{"name":"","type":"uint256"}],"outputs":[{"name":"Monthid","type":"uint256"},{"name":"value","type":"uint256"}],"stateMutability":"view"},
  {"type":"event","name":"paidRent","inputs":[{"name":"tenant","type":"address","indexed":true},{"name":"month","type":"uint256"},{"name":"amount","type":"uint256"}]},
  {"type":"event","name":"versionLinked","inputs":[{"name":"neighbour","type":"address","indexed":true},{"name":"direction","type":"uint256"}]}
]`

// freshID and freshTopic hash the signature the way ID and Topic did
// before selectors and topics were stored.
func freshID(signature string) [4]byte {
	h := ethtypes.Keccak256([]byte(signature))
	return [4]byte(h[:4])
}

func freshTopic(signature string) ethtypes.Hash {
	return ethtypes.Keccak256([]byte(signature))
}

// TestNewStoresSelectorsAndTopics: an ABI from ParseJSON (which goes
// through New) holds keccak(signature) for every method and event, and
// answers ID, Topic, Pack and EventByTopic without hashing.
func TestNewStoresSelectorsAndTopics(t *testing.T) {
	a, err := ParseJSON([]byte(selectorDoc))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Methods) != 3 || len(a.Events) != 2 {
		t.Fatalf("parsed %d methods, %d events", len(a.Methods), len(a.Events))
	}
	for name, m := range a.Methods {
		if m.id != freshID(m.Signature()) {
			t.Errorf("method %s: stored selector %x, fresh %x", name, m.id, freshID(m.Signature()))
		}
		if m.ID() != freshID(m.Signature()) {
			t.Errorf("method %s: ID() = %x", name, m.ID())
		}
		if got, ok := a.MethodByID(m.id[:]); !ok || got.Name != name {
			t.Errorf("MethodByID(%x) = %q, %v", m.id, got.Name, ok)
		}
	}
	for name, e := range a.Events {
		if e.topic != freshTopic(e.Signature()) || e.Topic() != e.topic {
			t.Errorf("event %s: stored topic %s, fresh %s", name, e.topic, freshTopic(e.Signature()))
		}
		if got, ok := a.EventByTopic(e.topic); !ok || got.Name != name {
			t.Errorf("EventByTopic(%s) = %q, %v", e.topic, got.Name, ok)
		}
	}
	if _, ok := a.EventByTopic(ethtypes.Hash{1}); ok {
		t.Error("EventByTopic found an event for an unknown topic")
	}
	// The signature string is what allocates; a stored selector needs none.
	m, e := a.Methods["setNext"], a.Events["paidRent"]
	if n := testing.AllocsPerRun(100, func() { _ = m.ID(); _ = e.Topic() }); n != 0 {
		t.Errorf("ID+Topic on a constructed ABI allocate %.0f times, want 0", n)
	}
	data, err := a.Pack("setNext", ethtypes.Address{19: 1})
	if err != nil || [4]byte(data[:4]) != freshID("setNext(address)") {
		t.Errorf("Pack selector = %x, err %v", data[:4], err)
	}
}

// TestLiteralMethodAndEventStillAnswer: values built outside New carry
// no stored hash and fall back to computing it, alone or inside an ABI
// literal.
func TestLiteralMethodAndEventStillAnswer(t *testing.T) {
	m := Method{Name: "setNext", Inputs: []Arg{{Name: "_next", Type: AddressType}}}
	if m.ID() != freshID("setNext(address)") {
		t.Errorf("literal method ID = %x", m.ID())
	}
	e := Event{Name: "versionLinked", Inputs: []Arg{
		{Name: "neighbour", Type: AddressType, Indexed: true},
		{Name: "direction", Type: Uint256Type},
	}}
	if e.Topic() != freshTopic("versionLinked(address,uint256)") {
		t.Errorf("literal event topic = %s", e.Topic())
	}
	lit := &ABI{Methods: map[string]Method{"setNext": m}, Events: map[string]Event{"versionLinked": e}}
	data, err := lit.Pack("setNext", ethtypes.Address{19: 1})
	if err != nil || [4]byte(data[:4]) != freshID("setNext(address)") {
		t.Errorf("literal ABI Pack selector = %x, err %v", data[:4], err)
	}
	if got, ok := lit.EventByTopic(e.Topic()); !ok || got.Name != "versionLinked" {
		t.Errorf("literal ABI EventByTopic = %q, %v", got.Name, ok)
	}
	if got, ok := lit.MethodByID(data[:4]); !ok || got.Name != "setNext" {
		t.Errorf("literal ABI MethodByID = %q, %v", got.Name, ok)
	}
	if _, ok := (&ABI{}).EventByTopic(e.Topic()); ok {
		t.Error("empty ABI literal found an event")
	}
	// The same parts through New agree with the literal.
	built := New(nil, map[string]Method{"setNext": m}, map[string]Event{"versionLinked": e})
	if built.Methods["setNext"].ID() != m.ID() || built.Events["versionLinked"].Topic() != e.Topic() {
		t.Error("New and the literal disagree")
	}
	if empty := New(nil, nil, nil); empty.Methods == nil || empty.Events == nil {
		t.Error("New(nil, nil, nil) left a nil map")
	}
}

// TestConstructedABIConcurrentReads: a constructed ABI is read-only, so
// any number of goroutines may pack and decode through it (make check
// runs this under the race detector).
func TestConstructedABIConcurrentReads(t *testing.T) {
	a, err := ParseJSON([]byte(selectorDoc))
	if err != nil {
		t.Fatal(err)
	}
	topic := freshTopic("paidRent(address,uint256,uint256)")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := a.Pack("payRent"); err != nil {
					t.Error(err)
					return
				}
				if _, ok := a.EventByTopic(topic); !ok {
					t.Error("paidRent not found by topic")
					return
				}
			}
		}()
	}
	wg.Wait()
}
