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

// freshID and freshTopic hash the signature the way a literal's ID and
// Topic do, with no cell.
func freshID(signature string) [4]byte {
	h := ethtypes.Keccak256([]byte(signature))
	return [4]byte(h[:4])
}

func freshTopic(signature string) ethtypes.Hash {
	return ethtypes.Keccak256([]byte(signature))
}

// hashedNothing reports whether no selector, topic or topic index of a
// has been computed yet.
func hashedNothing(a *ABI) bool {
	for _, m := range a.Methods {
		if m.id == nil || !m.id.h.IsZero() {
			return false
		}
	}
	for _, e := range a.Events {
		if e.topic == nil || !e.topic.h.IsZero() {
			return false
		}
	}
	return a.byTopic != nil && a.byTopic.m == nil
}

// TestNewStoresSelectorsAndTopics: an ABI from ParseJSON (which goes
// through New) gives every method and event a cell and hashes nothing;
// the first ID, Topic, Pack and EventByTopic fill the cells
// with keccak(signature), and every later read is a field read that
// allocates nothing.
func TestNewStoresSelectorsAndTopics(t *testing.T) {
	a, err := ParseJSON([]byte(selectorDoc))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Methods) != 3 || len(a.Events) != 2 {
		t.Fatalf("parsed %d methods, %d events", len(a.Methods), len(a.Events))
	}
	if !hashedNothing(a) {
		t.Fatal("a freshly parsed ABI has hashed a signature")
	}
	// Pack fills its method's cell, through which every copy answers.
	data, err := a.Pack("setNext", ethtypes.Address{19: 1})
	if err != nil || [4]byte(data[:4]) != freshID("setNext(address)") {
		t.Errorf("Pack selector = %x, err %v", data[:4], err)
	}
	if got := a.Methods["setNext"].id.h; [4]byte(got[:4]) != freshID("setNext(address)") {
		t.Errorf("Pack left the setNext cell at %s", got)
	}
	if !a.Methods["payRent"].id.h.IsZero() {
		t.Error("Pack(setNext) hashed payRent")
	}
	for name, m := range a.Methods {
		if m.ID() != freshID(m.Signature()) {
			t.Errorf("method %s: ID() = %x, fresh %x", name, m.ID(), freshID(m.Signature()))
		}
	}
	// The first EventByTopic builds the topic index from the events'
	// cells.
	fresh, err := ParseJSON([]byte(selectorDoc))
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range fresh.Events {
		if got, ok := fresh.EventByTopic(freshTopic(e.Signature())); !ok || got.Name != name {
			t.Errorf("EventByTopic(%s) = %q, %v", name, got.Name, ok)
		}
		if e.topic.h != freshTopic(e.Signature()) || e.Topic() != e.topic.h {
			t.Errorf("event %s: cell holds %s, fresh %s", name, e.topic.h, freshTopic(e.Signature()))
		}
	}
	if _, ok := fresh.EventByTopic(ethtypes.Hash{1}); ok {
		t.Error("EventByTopic found an event for an unknown topic")
	}
	for _, m := range fresh.Methods {
		if !m.id.h.IsZero() {
			t.Errorf("EventByTopic hashed method %s", m.Name)
		}
	}
	// A filled cell is a field read: the signature string is what
	// allocates, and a second read builds none.
	m, e := a.Methods["setNext"], a.Events["paidRent"]
	topic := e.Topic()
	if n := testing.AllocsPerRun(100, func() {
		_ = m.ID()
		_ = e.Topic()
		_, _ = a.EventByTopic(topic)
	}); n != 0 {
		t.Errorf("a second ID+Topic+EventByTopic allocates %.0f times, want 0", n)
	}
}

// TestFirstUseConcurrent: goroutines that race to use a fresh ABI's
// cells first all read keccak(signature) (make check runs this under the
// race detector).
func TestFirstUseConcurrent(t *testing.T) {
	a, err := ParseJSON([]byte(selectorDoc))
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for name, m := range a.Methods {
				if m.ID() != freshID(m.Signature()) {
					t.Errorf("method %s: ID() = %x", name, m.ID())
				}
			}
			for name, e := range a.Events {
				if got, ok := a.EventByTopic(freshTopic(e.Signature())); !ok || got.Name != name || e.Topic() != freshTopic(e.Signature()) {
					t.Errorf("event %s: EventByTopic %q, %v; Topic %s", name, got.Name, ok, e.Topic())
				}
			}
			if data, err := a.Pack("payRent"); err != nil || [4]byte(data) != freshID("payRent()") {
				t.Errorf("Pack(payRent) = %x, %v", data, err)
			}
		}()
	}
	close(start)
	wg.Wait()
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
