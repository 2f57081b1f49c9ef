// Package bitvec provides packed binary vectors and the low-level bit
// operations every index in this repository is built on: Hamming
// distance via XOR+popcount, projections onto arbitrary dimension
// sets, and in-place bit manipulation.
//
// A Vector stores n dimensions in ⌈n/64⌉ little-endian words. All
// operations treat dimension i as bit i%64 of word i/64. Vectors of
// different dimensionality never compare equal and may not be mixed
// in distance computations.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// WordBits is the number of dimensions packed per machine word.
const WordBits = 64

// Vector is an n-dimensional binary vector packed into 64-bit words.
// The zero value is an empty (0-dimensional) vector.
type Vector struct {
	n     int
	words []uint64
}

// New returns an all-zero vector with n dimensions.
func New(n int) Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative dimension count %d", n))
	}
	return Vector{n: n, words: make([]uint64, wordsFor(n))}
}

func wordsFor(n int) int { return (n + WordBits - 1) / WordBits }

// FromBits builds a vector from an explicit bit slice; bits[i] != 0
// sets dimension i.
func FromBits(bs []byte) Vector {
	v := New(len(bs))
	for i, b := range bs {
		if b != 0 {
			v.Set(i)
		}
	}
	return v
}

// FromWords builds an n-dimensional vector that adopts (does not copy)
// the provided words. Bits at positions ≥ n must be zero; FromWords
// masks the final word defensively so the invariant always holds.
func FromWords(n int, words []uint64) Vector {
	if len(words) != wordsFor(n) {
		panic(fmt.Sprintf("bitvec: FromWords got %d words for %d dims, want %d", len(words), n, wordsFor(n)))
	}
	v := Vector{n: n, words: words}
	v.maskTail()
	return v
}

// FromWordsSharedUnchecked builds an n-dimensional vector over words
// without writing to them or reading them: the view is made from length
// arithmetic alone, so it is safe over read-only storage (a PROT_READ
// file mapping, where FromWords' tail mask would fault) and carving
// millions of views faults no page in. Bits at positions ≥ n are the
// caller's to prove zero (CheckTail) before it trusts a distance. A
// wrong word count is a programming error, not corruption, and panics.
func FromWordsSharedUnchecked(n int, words []uint64) Vector {
	if len(words) != wordsFor(n) {
		panic(fmt.Sprintf("bitvec: %d words for %d dims, want %d", len(words), n, wordsFor(n)))
	}
	return Vector{n: n, words: words}
}

// CheckTail validates the invariant every constructor except
// FromWordsSharedUnchecked establishes: bits at positions ≥ n are
// zero (set tail bits would be counted by Hamming).
func (v Vector) CheckTail() error {
	if v.n%WordBits != 0 && len(v.words) > 0 {
		if tail := v.words[len(v.words)-1] &^ ((uint64(1) << uint(v.n%WordBits)) - 1); tail != 0 {
			return fmt.Errorf("bitvec: bits set beyond dimension %d (tail word %#x)", v.n, v.words[len(v.words)-1])
		}
	}
	return nil
}

// FromString parses a vector from a string of '0' and '1' runes, most
// significant dimension first is NOT assumed: s[i] corresponds to
// dimension i.
func FromString(s string) (Vector, error) {
	v := New(len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '1':
			v.Set(i)
		case '0':
		default:
			return Vector{}, fmt.Errorf("bitvec: invalid character %q at position %d", s[i], i)
		}
	}
	return v, nil
}

// MustFromString is FromString that panics on malformed input; it is
// intended for tests and literals.
func MustFromString(s string) Vector {
	v, err := FromString(s)
	if err != nil {
		panic(err)
	}
	return v
}

func (v Vector) maskTail() {
	if v.n%WordBits != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (uint64(1) << uint(v.n%WordBits)) - 1
	}
}

// Dims returns the number of dimensions.
func (v Vector) Dims() int { return v.n }

// Words exposes the backing words for read-only use (index keys,
// serialization). Callers must not modify the returned slice.
func (v Vector) Words() []uint64 { return v.words }

// Bit reports the value of dimension i as 0 or 1.
func (v Vector) Bit(i int) int {
	v.check(i)
	return int(v.words[i/WordBits] >> (uint(i) % WordBits) & 1)
}

// Set sets dimension i to 1.
func (v Vector) Set(i int) {
	v.check(i)
	v.words[i/WordBits] |= 1 << (uint(i) % WordBits)
}

// Clear sets dimension i to 0.
func (v Vector) Clear(i int) {
	v.check(i)
	v.words[i/WordBits] &^= 1 << (uint(i) % WordBits)
}

// Flip toggles dimension i.
func (v Vector) Flip(i int) {
	v.check(i)
	v.words[i/WordBits] ^= 1 << (uint(i) % WordBits)
}

// SetBit sets dimension i to b (0 or 1).
func (v Vector) SetBit(i, b int) {
	if b == 0 {
		v.Clear(i)
	} else {
		v.Set(i)
	}
}

func (v Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: dimension %d out of range [0,%d)", i, v.n))
	}
}

// PopCount returns the number of dimensions set to 1.
func (v Vector) PopCount() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	w := Vector{n: v.n, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// Equal reports whether v and u have identical dimensions and bits.
func (v Vector) Equal(u Vector) bool {
	if v.n != u.n {
		return false
	}
	for i, w := range v.words {
		if w != u.words[i] {
			return false
		}
	}
	return true
}

// Hamming returns the Hamming distance between v and u. It panics if
// the vectors have different dimensionality: mixing spaces is a
// programming error, not a data condition.
func (v Vector) Hamming(u Vector) int {
	if v.n != u.n {
		panic(fmt.Sprintf("bitvec: Hamming distance between %d-dim and %d-dim vectors", v.n, u.n))
	}
	d := 0
	for i, w := range v.words {
		d += bits.OnesCount64(w ^ u.words[i])
	}
	return d
}

// HammingWithin reports whether H(v, u) ≤ t, short-circuiting as soon
// as the running distance exceeds t. This is the scalar verification
// kernel: on non-matching candidates it typically inspects one or two
// words. Boundary thresholds are part of the contract shared with the
// batch kernels in internal/verify: t < 0 admits nothing (the
// short-circuit never gets to fire) and t ≥ Dims admits everything
// (H ≤ Dims always, so the short-circuit can never fire either) —
// both cases return without touching the words.
func (v Vector) HammingWithin(u Vector, t int) bool {
	if v.n != u.n {
		panic(fmt.Sprintf("bitvec: HammingWithin between %d-dim and %d-dim vectors", v.n, u.n))
	}
	if t < 0 {
		return false
	}
	if t >= v.n {
		return true
	}
	d := 0
	for i, w := range v.words {
		d += bits.OnesCount64(w ^ u.words[i])
		if d > t {
			return false
		}
	}
	return true
}

// Xor returns the element-wise XOR of v and u as a new vector.
func (v Vector) Xor(u Vector) Vector {
	if v.n != u.n {
		panic(fmt.Sprintf("bitvec: Xor between %d-dim and %d-dim vectors", v.n, u.n))
	}
	out := New(v.n)
	for i := range v.words {
		out.words[i] = v.words[i] ^ u.words[i]
	}
	return out
}

// CloneInto copies v into dst's storage when dst has enough capacity,
// allocating a fresh vector otherwise, and returns the result. It is
// the storage-reusing form of Clone used by enumeration hot paths.
func (v Vector) CloneInto(dst Vector) Vector {
	if cap(dst.words) < len(v.words) {
		return v.Clone()
	}
	dst.words = dst.words[:len(v.words)]
	copy(dst.words, v.words)
	dst.n = v.n
	return dst
}

// Resized returns a vector with n dimensions, reusing v's word
// storage when it is large enough. The contents are unspecified —
// the caller must fully overwrite them (ProjectInto does) before any
// read, including the tail bits beyond n. Hot paths use it to keep
// one scratch vector across partitions of different widths without
// paying a clear that the subsequent overwrite repeats.
func (v Vector) Resized(n int) Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative dimension count %d", n))
	}
	w := wordsFor(n)
	if cap(v.words) < w {
		return New(n)
	}
	return Vector{n: n, words: v.words[:w]}
}

// Project extracts the bits at dims (in order) into a new
// len(dims)-dimensional vector. Projections are how partitions view
// their slice of a vector.
func (v Vector) Project(dims []int) Vector {
	p := New(len(dims))
	for j, d := range dims {
		if v.Bit(d) == 1 {
			p.Set(j)
		}
	}
	return p
}

// ProjectInto writes the projection of v onto dims into dst, reusing
// dst's storage. dst must have exactly len(dims) dimensions. It is the
// allocation-free variant of Project used on query hot paths: each word
// of dst is built in a register (gather) and stored once — or-ing bit
// after bit into memory makes every bit wait on the store before it.
//
//gph:hotpath
func (v Vector) ProjectInto(dims []int, dst Vector) {
	if dst.n != len(dims) {
		panic(fmt.Sprintf("bitvec: ProjectInto dst has %d dims, want %d", dst.n, len(dims)))
	}
	for k := range dst.words {
		dst.words[k] = v.gather(dims[WordBits*k : min(WordBits*(k+1), len(dims))])
	}
}

// gather packs the bits of v at dims (at most a word of them) into a
// word, dims[0] lowest: highest bit first, the word shifted up under
// each next one. Its own function, so the loop's five live values stay
// in registers; and the bit is tested, not shifted down — a test takes
// its position in any register, a variable shift only in CX.
//
//gph:hotpath
func (v Vector) gather(dims []int) uint64 {
	var acc uint64
	for j := len(dims) - 1; j >= 0; j-- {
		d := dims[j]
		if uint(d) >= uint(v.n) {
			v.check(d) // panics; kept out of line so the loop stays branch-light
		}
		var bit uint64
		if v.words[d>>6]&(1<<(uint(d)&63)) != 0 {
			bit = 1
		}
		acc = acc<<1 | bit
	}
	return acc
}

// Key returns the packed words as a string usable as a map key. Two
// vectors of the same dimensionality share a key iff they are Equal.
func (v Vector) Key() string {
	b := make([]byte, 8*len(v.words))
	for i, w := range v.words {
		putUint64LE(b[8*i:], w)
	}
	return string(b)
}

// AppendKey appends the packed words to dst and returns the extended
// slice; it is the allocation-conscious form of Key.
func (v Vector) AppendKey(dst []byte) []byte {
	var buf [8]byte
	for _, w := range v.words {
		putUint64LE(buf[:], w)
		dst = append(dst, buf[:]...)
	}
	return dst
}

func putUint64LE(b []byte, w uint64) {
	_ = b[7]
	b[0] = byte(w)
	b[1] = byte(w >> 8)
	b[2] = byte(w >> 16)
	b[3] = byte(w >> 24)
	b[4] = byte(w >> 32)
	b[5] = byte(w >> 40)
	b[6] = byte(w >> 48)
	b[7] = byte(w >> 56)
}

// String renders the vector as a '0'/'1' string, dimension 0 first.
func (v Vector) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Bit(i) == 1 {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// OnesIndices returns the sorted list of dimensions set to 1; used by
// the set-based (Jaccard/MinHash) views of a vector.
func (v Vector) OnesIndices() []int {
	return v.AppendOnes(make([]int, 0, 8))
}

// AppendOnes appends the dimensions set to 1, ascending, to dst and
// returns the extended slice.
func (v Vector) AppendOnes(dst []int) []int {
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, wi*WordBits+b)
			w &= w - 1
		}
	}
	return dst
}
