package invindex

import (
	"math/bits"
	"slices"
)

// A deletion-variant index (HmSearch, PartAlloc) answers a radius-1
// probe by exact lookups: it lists each w-bit projection under w + 1
// keys, and two projections share a key exactly when they are within
// Hamming distance 1. Every key has one width, w + bits.Len(w) bits: the
// projection in bits [0, w), and a position in the bits above — 0 for
// the exact key, j + 1 for the variant that "deletes" dimension j by
// clearing its bit. The position tells the variants apart, so equal keys
// delete the same dimension: at w = 300 the variants at 10 and 266 of two
// projections that differ at exactly those dimensions are different keys.

// variantWidth returns the width of the deletion-variant keys of a w-bit
// projection: the projection and its position field.
func variantWidth(w int) int { return w + bits.Len(uint(w)) }

// setVariant writes into key the variant of the exact key exact (a w-bit
// projection, its position field 0) that deletes dimension j < w: bit j
// cleared and j + 1 in the position field.
func setVariant(key, exact []uint64, w, j int) {
	copy(key, exact)
	key[j/64] &^= 1 << (j % 64)
	at, shift, pos := w/64, uint(w%64), uint64(j+1)
	key[at] |= pos << shift
	if shift+uint(bits.Len(uint(w))) > 64 {
		key[at+1] |= pos >> (64 - shift)
	}
}

// FreezeVariants freezes the deletion-variant index of n w-bit
// projections, ⌈w/64⌉ words each in proj (ProjectRows): each id's exact
// key and its w variants, FreezeRows with w + 1 keys an id.
func FreezeVariants(n, w int, proj []uint64) *Frozen {
	pw, kw := (w+63)/64, (variantWidth(w)+63)/64
	rows := make([]uint64, n*(w+1)*kw)
	for id := range n {
		keys := rows[id*(w+1)*kw : (id+1)*(w+1)*kw]
		exact := keys[:kw]
		copy(exact, proj[id*pw:(id+1)*pw])
		for j := range w {
			setVariant(keys[(j+1)*kw:(j+2)*kw], exact, w, j)
		}
	}
	return FreezeRows(n, w+1, variantWidth(w), rows)
}

// Radius1Scratch holds the key words and bytes a radius-1 probe reuses
// from call to call; the zero value is ready to use.
type Radius1Scratch struct {
	keys []uint64
	buf  []byte
}

// Radius1 probes a deletion-variant index (FreezeVariants) for the w-bit
// projection proj: it looks up proj's exact key and then its variant at
// each j < w in turn, and calls visit with the entry each key is held
// under — −1 for a key the index does not hold — until visit returns
// false. It reports whether visit never did. An id within distance 1 of
// proj is listed under at least one of the keys, and one at distance 0
// under all w + 1.
//
//gph:hotpath
func (f *Frozen) Radius1(proj []uint64, w int, s *Radius1Scratch, visit func(e int) bool) bool {
	kw := (variantWidth(w) + 63) / 64
	s.keys = slices.Grow(s.keys[:0], 2*kw)[:2*kw]
	exact, key := s.keys[:kw], s.keys[kw:]
	clear(exact)
	copy(exact, proj)
	if !visit(f.LookupKey(exact, &s.buf)) {
		return false
	}
	for j := range w {
		setVariant(key, exact, w, j)
		if !visit(f.LookupKey(key, &s.buf)) {
			return false
		}
	}
	return true
}
