// Package invindex provides the inverted-index substrate shared by
// every filter-and-refine algorithm in this repository: posting lists
// keyed by fixed-width projections of the vectors — a partition's bits,
// a deletion variant of them (HmSearch and PartAlloc answer radius-1
// probes from the data side), an LSH band signature — and byte-exact
// size accounting for the index-size experiments (paper Fig. 6). Every
// index is built by one builder, FreezeRows, which sorts projected words
// into the compact arena layout (Frozen) that every query path probes.
package invindex

import "fmt"

// Index collects keys to freeze, one an id, in id order. It stays only
// because the benchmark harness's probe timing (benchmark/layers.go)
// builds a partition through New, Add and Freeze; the engines call
// FreezeRows.
type Index struct {
	n, keyLen int
	rows      []uint64
}

// New returns an empty index.
func New() *Index { return &Index{} }

// Add adds key as the key of id, which must be the number of keys added
// before it. Keys have one length: at most 8 bytes or a whole number of
// words, as a packed projection has.
func (ix *Index) Add(key string, id int32) {
	if int(id) != ix.n || (ix.n > 0 && len(key) != ix.keyLen) || (len(key) > 8 && len(key)%8 != 0) {
		panic(fmt.Sprintf("invindex: key of %d bytes for id %d after %d keys of %d", len(key), id, ix.n, ix.keyLen))
	}
	ix.n, ix.keyLen = ix.n+1, len(key)
	for i := 0; i < len(key); i += 8 {
		var word uint64
		for j := i; j < min(i+8, len(key)); j++ {
			word |= uint64(key[j]) << (8 * (j - i))
		}
		ix.rows = append(ix.rows, word)
	}
}

// Freeze freezes the keys added, each read as the little-endian words
// of its bytes: FreezeRows at a width of 8 bits a key byte.
func (ix *Index) Freeze() *Frozen { return FreezeRows(ix.n, 1, 8*ix.keyLen, ix.rows) }
