// Package plan is gph-server's result cache, and the planner shims the
// benchmark still calls (planner.go): every query goes to its engine,
// which weighs its index against a linear scan of the verification arena
// itself, and no library type caches. The cache is a bounded, sharded LRU
// keyed on (query hash, tau, k, snapshot epoch): the server reads the
// sharded index's epoch, which every snapshot swap bumps, so
// Insert/Delete/Compact invalidate stale entries with zero coordination
// and no locks on the search hot path.
package plan

import "math/bits"

// xxHash64 constants (Yann Collet's XXH64, public-domain algorithm).
const (
	xxPrime1 uint64 = 0x9e3779b185ebca87
	xxPrime2 uint64 = 0xc2b2ae3d27d4eb4f
	xxPrime3 uint64 = 0x165667b19e3779f9
	xxPrime4 uint64 = 0x85ebca77c2b2ae63
	xxPrime5 uint64 = 0x27d4eb2f165667c5
)

// HashWords is XXH64 over the words of a bit vector, seeded — the
// cache-key hash. The input is consumed as 8-byte little-endian lanes
// (one per uint64 word), matching the reference XXH64 of the words'
// little-endian byte serialization. Seeding with the vector's
// dimension count keeps two vectors of different dims but identical
// word content (e.g. 63 vs 64 dims) from colliding.
//
//gph:hotpath
func HashWords(words []uint64, seed uint64) uint64 {
	n := len(words)
	var h uint64
	i := 0
	if n >= 4 {
		v1 := seed + xxPrime1 + xxPrime2
		v2 := seed + xxPrime2
		v3 := seed
		v4 := seed - xxPrime1
		for ; i+4 <= n; i += 4 {
			v1 = xxRound(v1, words[i])
			v2 = xxRound(v2, words[i+1])
			v3 = xxRound(v3, words[i+2])
			v4 = xxRound(v4, words[i+3])
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = xxMerge(h, v1)
		h = xxMerge(h, v2)
		h = xxMerge(h, v3)
		h = xxMerge(h, v4)
	} else {
		h = seed + xxPrime5
	}
	h += uint64(n) * 8
	for ; i < n; i++ {
		h ^= xxRound(0, words[i])
		h = bits.RotateLeft64(h, 27)*xxPrime1 + xxPrime4
	}
	// Avalanche.
	h ^= h >> 33
	h *= xxPrime2
	h ^= h >> 29
	h *= xxPrime3
	h ^= h >> 32
	return h
}

//gph:hotpath
func xxRound(acc, input uint64) uint64 {
	acc += input * xxPrime2
	acc = bits.RotateLeft64(acc, 31)
	return acc * xxPrime1
}

//gph:hotpath
func xxMerge(acc, val uint64) uint64 {
	acc ^= xxRound(0, val)
	return acc*xxPrime1 + xxPrime4
}
