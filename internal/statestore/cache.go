package statestore

import (
	"container/list"
	"sync"

	"legalchain/internal/ethtypes"
)

// Sharded, byte-budgeted LRU over record values. Keys are strings with
// a one-byte kind prefix ('a' account, 's' slot, 'c' code, 'n' node)
// so one budget covers all record kinds; sharding by a key byte keeps
// the hot ResolveNode path from serialising every reader on one lock.

const cacheShards = 16

func accountKey(addr ethtypes.Address) string { return "a" + string(addr[:]) }
func codeKey(h ethtypes.Hash) string          { return "c" + string(h[:]) }
func nodeKey(h ethtypes.Hash) string          { return "n" + string(h[:]) }
func storageKey(addr ethtypes.Address, slot ethtypes.Hash) string {
	b := make([]byte, 1, 1+len(addr)+len(slot))
	b[0] = 's'
	b = append(b, addr[:]...)
	b = append(b, slot[:]...)
	return string(b)
}

type cacheEntry struct {
	key string
	val []byte
}

type cacheShard struct {
	mu    sync.Mutex
	ll    *list.List // front = most recent
	items map[string]*list.Element
	bytes int64
	// slots counts the shard's cached slots per address (the key's bytes
	// 1–20), so a storage wipe of an address with none costs nothing.
	slots map[string]int
}

type lruCache struct {
	shards [cacheShards]cacheShard
	// budget per shard; total budget / cacheShards.
	shardBudget int64

	statsMu   sync.Mutex
	hits      uint64
	misses    uint64
	evictions uint64
}

func newLRUCache(budget int64) *lruCache {
	c := &lruCache{shardBudget: budget / cacheShards}
	if c.shardBudget < 1 {
		c.shardBudget = 1
	}
	for i := range c.shards {
		c.shards[i].ll = list.New()
		c.shards[i].items = make(map[string]*list.Element)
		c.shards[i].slots = make(map[string]int)
	}
	return c
}

// shardOf picks a shard from the first content byte after the kind
// prefix — addresses and hashes are uniformly distributed already. Every
// slot of one address therefore lives in one shard.
func (c *lruCache) shardOf(key string) *cacheShard {
	var b byte
	if len(key) > 1 {
		b = key[1]
	}
	return &c.shards[b%cacheShards]
}

// entrySize approximates an entry's memory footprint: key + value
// plus fixed overhead for the element, map slot and entry struct.
func entrySize(key string, val []byte) int64 {
	return int64(len(key)+len(val)) + 96
}

func (c *lruCache) get(key string) ([]byte, bool) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	el, ok := sh.items[key]
	if !ok {
		sh.mu.Unlock()
		mCacheMisses.Inc()
		c.count(&c.misses)
		return nil, false
	}
	sh.ll.MoveToFront(el)
	val := el.Value.(*cacheEntry).val
	sh.mu.Unlock()
	mCacheHits.Inc()
	c.count(&c.hits)
	return val, true
}

// put inserts or refreshes an entry, evicting cold entries until the
// shard fits its budget. The value is stored by reference — callers
// must not mutate it after (the store only ever passes freshly read
// or freshly encoded buffers).
func (c *lruCache) put(key string, val []byte) {
	sh := c.shardOf(key)
	sz := entrySize(key, val)
	if sz > c.shardBudget {
		return // single oversized value would evict the whole shard
	}
	sh.mu.Lock()
	if el, ok := sh.items[key]; ok {
		e := el.Value.(*cacheEntry)
		sh.bytes += int64(len(val)) - int64(len(e.val))
		e.val = val
		sh.ll.MoveToFront(el)
	} else {
		el := sh.ll.PushFront(&cacheEntry{key: key, val: val})
		sh.items[key] = el
		sh.bytes += sz
		switch key[0] {
		case 'n':
			residentNodes.Add(1)
		case 's':
			sh.slots[slotOwner(key)]++
		}
	}
	evicted := 0
	for sh.bytes > c.shardBudget {
		oldest := sh.ll.Back()
		if oldest == nil {
			break
		}
		sh.unlink(oldest)
		evicted++
	}
	sh.mu.Unlock()
	if evicted > 0 {
		mCacheEvictions.Add(uint64(evicted))
		c.countN(&c.evictions, uint64(evicted))
	}
}

// slotOwner returns the address bytes of a slot key.
func slotOwner(key string) string { return key[1 : 1+ethtypes.AddressLength] }

// unlink removes one entry from the shard; sh.mu must be held.
func (sh *cacheShard) unlink(el *list.Element) {
	e := el.Value.(*cacheEntry)
	sh.ll.Remove(el)
	delete(sh.items, e.key)
	sh.bytes -= entrySize(e.key, e.val)
	switch e.key[0] {
	case 'n':
		residentNodes.Add(-1)
	case 's':
		owner := slotOwner(e.key)
		if sh.slots[owner]--; sh.slots[owner] == 0 {
			delete(sh.slots, owner)
		}
	}
}

func (c *lruCache) remove(key string) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	if el, ok := sh.items[key]; ok {
		sh.unlink(el)
	}
	sh.mu.Unlock()
}

// dropSlots removes every cached slot of addr (storage wipe). A wipe
// comes with every account creation, and the created account almost
// never has a slot cached, so that case returns on the count alone;
// otherwise only the address's shard is walked, until its last slot is
// gone.
func (c *lruCache) dropSlots(addr ethtypes.Address) {
	owner := string(addr[:])
	sh := c.shardOf("s" + owner)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for el := sh.ll.Front(); el != nil && sh.slots[owner] > 0; {
		next := el.Next()
		if e := el.Value.(*cacheEntry); e.key[0] == 's' && slotOwner(e.key) == owner {
			sh.unlink(el)
		}
		el = next
	}
}

func (c *lruCache) reset() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for el := sh.ll.Front(); el != nil; el = el.Next() {
			if e := el.Value.(*cacheEntry); e.key[0] == 'n' {
				residentNodes.Add(-1)
			}
		}
		sh.ll = list.New()
		sh.items = make(map[string]*list.Element)
		sh.slots = make(map[string]int)
		sh.bytes = 0
		sh.mu.Unlock()
	}
}

func (c *lruCache) count(field *uint64) {
	c.statsMu.Lock()
	*field++
	c.statsMu.Unlock()
}

func (c *lruCache) countN(field *uint64, n uint64) {
	c.statsMu.Lock()
	*field += n
	c.statsMu.Unlock()
}

func (c *lruCache) stats() (hits, misses, evictions uint64) {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.hits, c.misses, c.evictions
}
