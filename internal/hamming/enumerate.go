// Package hamming provides the enumeration and combinatorial kernels
// shared by every signature-based index in this repository: binomial
// coefficients with overflow guards, Hamming-ball sizes, and budgeted
// enumeration of all vectors within a given radius of a point.
package hamming

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"gph/internal/bitvec"
)

// ErrEnumerationBudget is returned when a Hamming-ball enumeration
// would exceed the caller-supplied budget. Cost-aware allocators never
// request such enumerations; the budget protects against adversarial
// or misconfigured thresholds.
var ErrEnumerationBudget = errors.New("hamming: enumeration budget exceeded")

// Binomial returns C(n, k) and whether the value fits in uint64.
// C(n, k) = 0 for k < 0 or k > n. Intermediate products use 128-bit
// arithmetic, so every representable value is computed exactly.
func Binomial(n, k int) (uint64, bool) {
	if k < 0 || k > n {
		return 0, true
	}
	if k > n-k {
		k = n - k
	}
	var c uint64 = 1
	for i := 1; i <= k; i++ {
		hi, lo := bits.Mul64(c, uint64(n-k+i))
		if hi >= uint64(i) {
			return 0, false // quotient would exceed 64 bits
		}
		q, _ := bits.Div64(hi, lo, uint64(i))
		c = q
	}
	return c, true
}

// BallSize returns Σ_{j=0..r} C(w, j), the number of w-bit vectors
// within Hamming distance r of any fixed vector, saturating at
// math.MaxUint64 on overflow (second result false).
func BallSize(w, r int) (uint64, bool) {
	if r < 0 {
		return 0, true
	}
	if r > w {
		r = w
	}
	var total uint64
	for j := 0; j <= r; j++ {
		c, ok := Binomial(w, j)
		if !ok {
			return math.MaxUint64, false
		}
		if total+c < total {
			return math.MaxUint64, false
		}
		total += c
	}
	return total, true
}

// Enumerator enumerates Hamming balls while reusing its scratch
// vector and position stack across calls. A zero Enumerator is ready
// to use; after warm-up, Enumerate performs no allocations, which is
// what query hot paths pool it for. An Enumerator is not safe for
// concurrent use.
type Enumerator struct {
	scratch   bitvec.Vector
	positions []int
}

// Enumerate invokes fn once for every vector within Hamming distance
// radius of center (including center itself, at distance 0). The
// vector passed to fn is a scratch buffer reused across calls; fn
// must not retain it. If fn returns false, enumeration stops early
// with a nil error.
//
// budget caps the number of enumerated vectors; pass budget ≤ 0 for
// unlimited. When the ball size exceeds the budget, Enumerate returns
// ErrEnumerationBudget without calling fn at all, so callers never
// pay for partially-useless work.
func (e *Enumerator) Enumerate(center bitvec.Vector, radius int, budget int64, fn func(bitvec.Vector) bool) error {
	if radius < 0 {
		return nil // empty ball: negative thresholds mean "skip this partition"
	}
	w := center.Dims()
	if budget > 0 {
		size, ok := BallSize(w, radius)
		if !ok || size > uint64(budget) {
			return ErrEnumerationBudget
		}
	}
	e.scratch = center.CloneInto(e.scratch)
	scratch := e.scratch
	if w == 0 {
		fn(scratch)
		return nil
	}
	if w <= 64 {
		// One-word vectors — every default partition — walk the ball in a
		// register (WordBall, same order) and hand each member over
		// through the scratch's single word.
		word := scratch.Words()
		b := NewWordBall(word[0], w, radius)
		for ok := true; ok; ok = b.Next() {
			word[0] = b.Sig
			if !fn(scratch) {
				return nil
			}
		}
		word[0] = center.Words()[0]
		return nil
	}
	if !fn(scratch) || radius == 0 {
		return nil
	}
	if cap(e.positions) < radius {
		e.positions = make([]int, radius)
	}
	positions := e.positions[:radius]

	// Iterative depth-first walk over bit-position combinations, in
	// the same order as the natural recursion: at depth d with bit i
	// flipped, descend starting from i+1. positions is the explicit
	// stack of flipped bits.
	d, i := 0, 0
	for {
		if i < w {
			scratch.Flip(i)
			positions[d] = i
			if !fn(scratch) {
				return nil
			}
			if d+1 < radius {
				d++
				i++
				continue
			}
			scratch.Flip(i) // leaf: undo and advance
			i++
			continue
		}
		// Candidates at this depth exhausted: backtrack.
		d--
		if d < 0 {
			return nil
		}
		i = positions[d]
		scratch.Flip(i)
		i++
	}
}

// WordBall walks the Hamming ball around a vector of at most 64
// dimensions held in one word: Sig is the current member and Dist its
// distance from the centre — the walk knows it, nobody recounts it. The
// order is Enumerate's (depth-first over ascending bit positions, a
// member visited before the members that extend it). It is a value: no
// callback, no heap state, nothing to pool — but declare it before the
// loop, not in its init clause: a three-clause loop's variable is
// copied every iteration, and the copy costs more than the step.
//
//	b := NewWordBall(center, w, r)
//	for ok := true; ok; ok = b.Next() { use(b.Sig, b.Dist()) }
type WordBall struct {
	Sig     uint64
	w, r, d int       // width, radius, bits currently flipped
	pos     [64]uint8 // the flipped positions, ascending in pos[:d]
}

// NewWordBall starts a walk of ball(width, radius) at its first member,
// the centre itself; Next moves on. It needs 1 ≤ width ≤ 64 and
// radius ≥ 0, and centre bits at or beyond width stay as they are.
func NewWordBall(center uint64, width, radius int) WordBall {
	return WordBall{Sig: center, w: width, r: min(radius, width)}
}

// Dist returns the Hamming distance of Sig from the centre.
func (b *WordBall) Dist() int { return b.d }

// Next advances to the next member and reports whether there was one;
// after the last, Sig is the centre again.
func (b *WordBall) Next() bool {
	if b.d < b.r {
		// Extend the current member by the next higher bit.
		next := 0
		if b.d > 0 {
			next = int(b.pos[b.d-1]) + 1
		}
		if next < b.w {
			b.pos[b.d] = uint8(next)
			b.d++
			b.Sig ^= 1 << next
			return true
		}
	}
	// Move the deepest flipped bit one up, backtracking past bits that
	// are already at the top.
	for b.d > 0 {
		i := int(b.pos[b.d-1])
		b.Sig ^= 1 << i
		if i+1 < b.w {
			b.pos[b.d-1] = uint8(i + 1)
			b.Sig ^= 1 << (i + 1)
			return true
		}
		b.d--
	}
	return false
}

// EnumerateBall is Enumerate with single-use state; prefer a pooled
// Enumerator on hot paths.
func EnumerateBall(center bitvec.Vector, radius int, budget int64, fn func(bitvec.Vector) bool) error {
	var e Enumerator
	return e.Enumerate(center, radius, budget, fn)
}

// BallCollect materializes the ball as freshly-allocated vectors; it
// exists for tests and small offline computations, not hot paths.
func BallCollect(center bitvec.Vector, radius int) []bitvec.Vector {
	var out []bitvec.Vector
	err := EnumerateBall(center, radius, 0, func(v bitvec.Vector) bool {
		out = append(out, v.Clone())
		return true
	})
	if err != nil {
		panic(fmt.Sprintf("hamming: unbudgeted enumeration failed: %v", err))
	}
	return out
}
