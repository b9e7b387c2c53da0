package statestore

import (
	"fmt"
	"testing"

	"legalchain/internal/ethtypes"
)

// checkSlotCounts recounts every shard's cached slots per address and
// compares the result with the counts dropSlots relies on.
func checkSlotCounts(t *testing.T, c *lruCache) {
	t.Helper()
	for i := range c.shards {
		sh := &c.shards[i]
		want := map[string]int{}
		for key := range sh.items {
			if key[0] == 's' {
				want[slotOwner(key)]++
			}
		}
		if fmt.Sprint(want) != fmt.Sprint(sh.slots) {
			t.Fatalf("shard %d counts slots %v, holds %v", i, sh.slots, want)
		}
	}
}

// TestDropSlotsDropsOnlyThatAddress wipes one address whose shard also
// holds another address's slots, its own account, code and a node: only
// the wiped address's slots go, and the shard's byte count returns to
// what it was before they were cached.
func TestDropSlotsDropsOnlyThatAddress(t *testing.T) {
	c := newLRUCache(1 << 20)
	wiped, neighbour, elsewhere := addr(0x21), addr(0x21), addr(0x22)
	neighbour[19] = 1 // same first byte, so the same shard as wiped
	sh := c.shardOf(storageKey(wiped, h32(0)))
	if sh != c.shardOf(storageKey(neighbour, h32(0))) || sh == c.shardOf(storageKey(elsewhere, h32(0))) {
		t.Fatal("set-up: shard layout is not the one the test assumes")
	}

	kept := map[string][]byte{
		accountKey(wiped):            []byte("account"),
		codeKey(ethtypes.Hash{0x21}): []byte("code"),
		nodeKey(ethtypes.Hash{0x21}): []byte("node"),
	}
	for i := byte(0); i < 4; i++ {
		kept[storageKey(neighbour, h32(i))] = []byte{i}
		kept[storageKey(elsewhere, h32(i))] = []byte{i}
	}
	for k, v := range kept {
		c.put(k, v)
	}
	before := sh.bytes
	for i := byte(0); i < 8; i++ {
		c.put(storageKey(wiped, h32(i)), []byte{i, i})
	}
	if sh.bytes == before || sh.slots[slotOwner(storageKey(wiped, h32(0)))] != 8 {
		t.Fatal("set-up: the wiped address's slots are not cached")
	}

	c.dropSlots(wiped)
	for i := byte(0); i < 8; i++ {
		if _, ok := c.get(storageKey(wiped, h32(i))); ok {
			t.Fatalf("slot %d of the wiped address survived", i)
		}
	}
	for k, v := range kept {
		if got, ok := c.get(k); !ok || string(got) != string(v) {
			t.Fatalf("entry %q (kind %c) lost or changed by the wipe", k, k[0])
		}
	}
	if sh.bytes != before {
		t.Fatalf("shard holds %d bytes after the wipe, %d before the slots were cached", sh.bytes, before)
	}
	checkSlotCounts(t, c)

	c.dropSlots(wiped) // nothing left to drop: a no-op
	checkSlotCounts(t, c)
}

// TestSlotCountsFollowEviction drives slots in and out through every
// path that removes an entry — eviction, remove, dropSlots, reset — and
// checks the per-address counts after each.
func TestSlotCountsFollowEviction(t *testing.T) {
	c := newLRUCache(16 * 1024) // 1 KiB a shard: a handful of entries
	for i := 0; i < 512; i++ {
		a := addr(byte(i % 7))
		c.put(storageKey(a, h32(byte(i))), []byte{byte(i)})
		if i%5 == 0 {
			c.remove(storageKey(a, h32(byte(i-3))))
		}
		if i%61 == 0 {
			c.dropSlots(a)
		}
	}
	if _, _, evictions := c.stats(); evictions == 0 {
		t.Fatal("set-up: the budget forced no eviction")
	}
	checkSlotCounts(t, c)
	c.reset()
	checkSlotCounts(t, c)
}
