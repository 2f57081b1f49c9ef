package plan

import (
	"sync"
	"sync/atomic"
)

// Key identifies one cached query result. Two lookups collide only if
// every field matches: the seeded query hash (seed = dims, see
// HashWords), the snapshot epoch at which the result was computed, the
// query shape (tau for range queries with K = -1; k for kNN queries
// with Tau = -1), and the engine the result came from. Epoch is the
// invalidation mechanism: writers bump it on every snapshot swap, so
// entries computed against a superseded snapshot can never match a
// post-swap lookup — they simply age out of the LRU.
type Key struct {
	Hash  uint64
	Epoch uint64
	Tau   int32
	K     int32
	Eng   uint8
}

// EngineID folds an engine name to the cache key's engine byte
// (FNV-1a folded to 8 bits). Distinct engines sharing one cache is
// not a supported configuration, so 8 bits of separation is plenty —
// the byte exists to keep an engine swap from replaying another
// engine's entries.
func EngineID(name string) uint8 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return uint8(h ^ h>>8 ^ h>>16 ^ h>>24)
}

// entry is one cached result, threaded on its shard's LRU list.
// Size accounting charges the ids/dists payload plus a fixed overhead
// for the entry, its map slot, and list links.
type entry struct {
	key        Key
	ids        []int32
	dists      []int32
	size       int64
	prev, next *entry
}

// entryOverhead approximates the fixed per-entry cost (entry struct,
// map bucket share, slice headers) charged against the byte budget on
// top of the payload.
const entryOverhead = 112

// cacheShards is the lock-striping factor. Shard choice uses the top
// hash bits (the bottom ones index the shard-layer's content-hash
// routing and the map's own buckets).
const cacheShards = 16

type cacheShard struct {
	mu         sync.Mutex
	entries    map[Key]*entry
	head, tail *entry // LRU list: head = most recent
	bytes      int64
}

// Cache is a bounded, sharded LRU over query results. All methods are
// safe for concurrent use and safe on a nil receiver (a nil *Cache is
// a disabled cache). Get returns the cached slices themselves — they
// are shared and must be treated as read-only by callers; that sharing
// is what makes the hit path allocation-free.
type Cache struct {
	shards   [cacheShards]cacheShard
	shardMax int64 // per-shard byte budget (maxBytes / cacheShards)
	maxBytes int64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	bytes     atomic.Int64
	count     atomic.Int64
}

// NewCache builds a cache bounded by maxBytes across all shards.
// maxBytes <= 0 returns nil: the disabled cache.
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	c := &Cache{maxBytes: maxBytes, shardMax: maxBytes / cacheShards}
	if c.shardMax < entryOverhead {
		c.shardMax = entryOverhead
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[Key]*entry)
	}
	return c
}

// CacheStats is a point-in-time snapshot of cache counters.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
}

// Stats snapshots the counters. Nil-safe.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.count.Load(),
		Bytes:     c.bytes.Load(),
		MaxBytes:  c.maxBytes,
	}
}

// Get returns the cached result for key, promoting it to
// most-recently-used. The returned slices are shared with the cache
// and must not be modified. Nil-safe; the hit path performs no
// allocations (pointer surgery on the LRU list, a map read, atomic
// counter bumps — nothing else).
//
//gph:hotpath
func (c *Cache) Get(key Key) (ids, dists []int32, ok bool) {
	if c == nil {
		return nil, nil, false
	}
	sh := &c.shards[key.Hash>>60&(cacheShards-1)]
	sh.mu.Lock()
	e := sh.entries[key]
	if e == nil {
		sh.mu.Unlock()
		c.misses.Add(1)
		return nil, nil, false
	}
	sh.moveToFront(e)
	ids, dists = e.ids, e.dists
	sh.mu.Unlock()
	c.hits.Add(1)
	return ids, dists, true
}

// Put inserts a result, evicting least-recently-used entries while the
// shard exceeds its byte budget. Entries larger than the whole shard
// budget are not cached. The slices are retained as-is (not copied):
// callers hand over ownership and must not modify them afterwards.
// Nil-safe.
//
//gph:hotpath
func (c *Cache) Put(key Key, ids, dists []int32) {
	if c == nil {
		return
	}
	size := entryOverhead + 4*int64(len(ids)+len(dists))
	if size > c.shardMax {
		return
	}
	sh := &c.shards[key.Hash>>60&(cacheShards-1)]
	var freed int64
	var evicted, added int64
	sh.mu.Lock()
	if old := sh.entries[key]; old != nil {
		// Concurrent fill of the same key: keep the incumbent, just
		// promote it.
		sh.moveToFront(old)
		sh.mu.Unlock()
		return
	}
	e := &entry{key: key, ids: ids, dists: dists, size: size}
	sh.entries[key] = e
	sh.pushFront(e)
	sh.bytes += size
	added = 1
	for sh.bytes > c.shardMax && sh.tail != e {
		victim := sh.tail
		sh.unlink(victim)
		delete(sh.entries, victim.key)
		sh.bytes -= victim.size
		freed += victim.size
		evicted++
	}
	sh.mu.Unlock()
	c.bytes.Add(size - freed)
	c.count.Add(added - evicted)
	c.evictions.Add(evicted)
}

// moveToFront promotes e to the head of the LRU list. Caller holds mu.
//
//gph:hotpath
func (sh *cacheShard) moveToFront(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

//gph:hotpath
func (sh *cacheShard) pushFront(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

//gph:hotpath
func (sh *cacheShard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
