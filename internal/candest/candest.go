// Package candest computes per-partition candidate numbers CN(qᵢ, τᵢ)
// — the quantity the paper's threshold-allocation DP consumes (§IV-C) —
// exactly, from a distance histogram over a partition's distinct
// projections. It is the build-side kernel: partition refinement scores
// moves with it over a data sample. A built index does not use it —
// its estimates read the (key, posting count) pairs its frozen inverted
// index already stores (invindex.Frozen.Histogram, which is tested
// against Exact) — but shares Cumulate. The paper's sub-partition and
// learned estimators are not here: they approximate a histogram that
// this tree reads for free (DESIGN.md §4, "Table III, restated").
package candest

import (
	"fmt"
	"math/bits"
	"sort"

	"gph/internal/bitvec"
)

// Exact computes CN exactly from the multiset of distinct projections
// of the data onto the partition. One pass over the distinct values
// yields CN(q, e) for every e simultaneously — exactly the shape the
// allocation DP needs. Skewed partitions have few distinct values, so
// the exact method is cheapest precisely where the paper's method
// pays off.
//
// Immutable after construction and safe for concurrent use.
type Exact struct {
	dims   []int
	arena  []uint64 // len(counts) stripes of (len(dims)+63)/64 words, in sorted key order
	counts []int32
}

// NewExact builds the estimator from the data collection. The
// distinct projections are stored in sorted key order, so two builds
// over the same data produce identical estimators.
func NewExact(data []bitvec.Vector, dims []int) *Exact {
	byKey := make(map[string]int32, len(data)/4+1)
	scratch := bitvec.New(len(dims))
	for _, v := range data {
		v.ProjectInto(dims, scratch)
		byKey[scratch.Key()]++
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	projWords := (len(dims) + 63) / 64
	e := &Exact{
		dims:   dims,
		arena:  make([]uint64, 0, len(keys)*projWords),
		counts: make([]int32, 0, len(keys)),
	}
	for _, k := range keys {
		if len(k) != 8*projWords {
			panic(fmt.Sprintf("candest: key length %d for %d dims", len(k), len(dims)))
		}
		for i := 0; i < projWords; i++ {
			var w uint64
			for b := 7; b >= 0; b-- {
				w = w<<8 | uint64(k[8*i+b])
			}
			e.arena = append(e.arena, w)
		}
		e.counts = append(e.counts, byKey[k])
	}
	return e
}

// CNAll returns CN(q, e) for e ∈ [−1, maxTau] as a freshly allocated
// slice indexed by e+1 (so [0] is always 0). q is the full query
// vector; it is projected onto the partition's dimensions.
func (e *Exact) CNAll(q bitvec.Vector, maxTau int) []int64 {
	out := make([]int64, maxTau+2)
	e.CNAllInto(q, out)
	return out
}

// CNAllInto fills a caller-provided row: out must have length
// maxTau+2 and is overwritten.
func (e *Exact) CNAllInto(q bitvec.Vector, out []int64) {
	Cumulate(e.Histogram(q), out)
}

// Cumulate turns a distance histogram (hist[d] = data vectors whose
// projection lies at distance d) into a CN row: out[e+1] = CN(q, e),
// the histogram's prefix sum, constant past its end; out[0], the
// e = −1 entry, is 0 — negative thresholds generate no candidates.
func Cumulate(hist, out []int64) {
	out[0] = 0
	var cum int64
	for ei := 1; ei < len(out); ei++ {
		if d := ei - 1; d < len(hist) {
			cum += hist[d]
		}
		out[ei] = cum
	}
}

// Histogram returns the exact distance histogram of the data
// projections relative to q (index = distance, length width+1): the
// multiplicity-weighted count of distinct projections at each distance
// from q's. The loop is branch-free for the reason
// invindex.Frozen.Histogram gives.
func (e *Exact) Histogram(q bitvec.Vector) []int64 {
	w := len(e.dims)
	projWords := (w + 63) / 64
	proj := bitvec.New(w)
	q.ProjectInto(e.dims, proj)
	hist := make([]int64, w+1)
	counts := e.counts
	switch projWords {
	case 0:
		// Zero-width partition: one (empty) projection at distance 0.
		for _, c := range counts {
			hist[0] += int64(c)
		}
	case 1:
		p := proj.Words()[0]
		arena := e.arena[:len(counts)]
		for j, x := range arena {
			hist[bits.OnesCount64(x^p)] += int64(counts[j])
		}
	default:
		p := proj.Words()
		for j, c := range counts {
			stripe := e.arena[j*projWords : (j+1)*projWords]
			d := 0
			for k, x := range stripe {
				d += bits.OnesCount64(x ^ p[k])
			}
			hist[d] += int64(c)
		}
	}
	return hist
}
