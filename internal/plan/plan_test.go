package plan

import (
	"math/rand"
	"sync"
	"testing"

	"gph/internal/bitvec"
	"gph/internal/engine"
)

func TestHashWords(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 8, 13} {
		words := make([]uint64, n)
		for i := range words {
			words[i] = rng.Uint64()
		}
		h := HashWords(words, 64)
		if got := HashWords(words, 64); got != h {
			t.Fatalf("n=%d: not deterministic: %x vs %x", n, h, got)
		}
		if got := HashWords(words, 63); got == h {
			t.Errorf("n=%d: seed (dims) does not affect the hash", n)
		}
		if n > 0 {
			flipped := append([]uint64(nil), words...)
			flipped[n-1] ^= 1
			if got := HashWords(flipped, 64); got == h {
				t.Errorf("n=%d: single-bit flip does not change the hash", n)
			}
		}
	}
	// Length is part of the hash: a trailing zero word must matter.
	if HashWords([]uint64{1, 2}, 0) == HashWords([]uint64{1, 2, 0}, 0) {
		t.Error("trailing zero word does not change the hash")
	}
}

func TestCacheLRUAndBounds(t *testing.T) {
	if NewCache(0) != nil || NewCache(-1) != nil {
		t.Fatal("NewCache(<=0) must return the disabled cache")
	}
	var disabled *Cache
	if _, _, ok := disabled.Get(Key{}); ok {
		t.Fatal("nil cache reported a hit")
	}
	disabled.Put(Key{}, []int32{1}, nil) // must not panic
	if st := disabled.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}

	// Budget for exactly two small entries per shard; all keys share
	// Hash so they land in one shard and the LRU order is observable.
	c := NewCache(cacheShards * (2*entryOverhead + 2*8))
	key := func(tau int32) Key { return Key{Tau: tau, K: -1} }
	c.Put(key(1), []int32{1}, nil)
	c.Put(key(2), []int32{2}, nil)
	if _, _, ok := c.Get(key(1)); !ok {
		t.Fatal("entry 1 missing before eviction")
	}
	// 1 is now most-recent; inserting 3 must evict 2.
	c.Put(key(3), []int32{3}, nil)
	if _, _, ok := c.Get(key(2)); ok {
		t.Error("LRU victim (2) still cached")
	}
	if ids, _, ok := c.Get(key(1)); !ok || len(ids) != 1 || ids[0] != 1 {
		t.Errorf("promoted entry lost: %v %v", ids, ok)
	}
	if _, _, ok := c.Get(key(3)); !ok {
		t.Error("fresh entry (3) missing")
	}

	// An entry larger than the whole shard budget is rejected outright.
	huge := make([]int32, 1024)
	c.Put(key(4), huge, nil)
	if _, _, ok := c.Get(key(4)); ok {
		t.Error("oversize entry cached")
	}

	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 || st.Bytes <= 0 || st.Bytes > st.MaxBytes {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheEpochMismatch(t *testing.T) {
	c := NewCache(1 << 20)
	k0 := Key{Hash: 42, Epoch: 0, Tau: 3, K: -1}
	c.Put(k0, []int32{1, 2}, nil)
	k1 := k0
	k1.Epoch = 1
	if _, _, ok := c.Get(k1); ok {
		t.Fatal("entry from epoch 0 served at epoch 1")
	}
	if _, _, ok := c.Get(k0); !ok {
		t.Fatal("entry missing at its own epoch")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				k := Key{Hash: rng.Uint64() & 0xff << 56, Tau: int32(rng.Intn(8)), K: -1}
				if rng.Intn(2) == 0 {
					c.Put(k, []int32{int32(i)}, nil)
				} else {
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes < 0 || st.Entries < 0 {
		t.Fatalf("accounting went negative: %+v", st)
	}
}

// untouchable is an engine with nothing behind it: every Engine method
// is the nil embedded interface's and panics when called.
type untouchable struct{ engine.Engine }

// TestRouteNeverCallsTheEngine: Route, the shim benchmark/layers.go
// times, asks the engine nothing, whatever the engine, and allocates
// nothing.
func TestRouteNeverCallsTheEngine(t *testing.T) {
	var e engine.Engine = untouchable{}
	q := bitvec.New(64)
	p := NewPlanner(ModeAdaptive)
	tau := 0
	allocs := testing.AllocsPerRun(1000, func() {
		p.Route(e, q, tau%64)
		tau++
	})
	if allocs != 0 {
		t.Fatalf("%v allocs a Route", allocs)
	}
}

// TestCachedHitDoesNotAllocate pins the repeated-query fast path: a hit
// returns the cached slices themselves, so Get allocates nothing.
func TestCachedHitDoesNotAllocate(t *testing.T) {
	c := NewCache(1 << 20)
	words := []uint64{0xdeadbeef, 7, 1 << 63, 42}
	key := Key{Hash: HashWords(words, 256), Epoch: 3, Tau: 8, K: -1}
	c.Put(key, []int32{1, 5, 9}, nil)
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		ids, _, ok := c.Get(key)
		if !ok {
			panic("the entry is gone")
		}
		sink += len(ids)
	})
	if allocs != 0 {
		t.Errorf("a cached hit allocates %v times per Get, want 0", allocs)
	}
	if hits := c.Stats().Hits; hits < 100 {
		t.Errorf("%d hits counted for at least 100 Gets", hits)
	}
}
