// Package candest estimates per-partition candidate numbers
// CN(qᵢ, τᵢ) — the quantity the paper's threshold-allocation DP
// consumes (§IV-C). Three estimators are provided, mirroring the
// paper: Exact (a distance histogram over the partition's distinct
// projections), SubPartition (independence composition over
// sub-partitions), and Learned (regression over the query bits, with
// selectable model for the Table III comparison).
package candest

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"gph/internal/bitvec"
)

// Estimator estimates candidate numbers for one partition of the
// dimension space. Implementations are immutable after construction
// and safe for concurrent use.
type Estimator interface {
	// CNAll returns estimates of CN(q, e) for e ∈ [−1, maxTau] as a
	// slice indexed by e+1 (so [0] is always 0). q is the full query
	// vector; the estimator projects it onto its own dimensions.
	CNAll(q bitvec.Vector, maxTau int) []int64
	// Dims returns the partition's dimension list (shared, read-only).
	Dims() []int
	// SizeBytes reports the estimator's resident size for index-size
	// accounting (learned models make GPH's index larger than MIH's,
	// as the paper notes for Fig. 6).
	SizeBytes() int64
}

// Exact computes CN exactly from the multiset of distinct projections
// of the data onto the partition. One pass over the distinct values
// yields CN(q, e) for every e simultaneously — exactly the shape the
// allocation DP needs. Skewed partitions have few distinct values, so
// the exact method is cheapest precisely where the paper's method
// pays off.
//
// The distinct projections live in one flat word arena (a fixed-width
// stripe per projection, in sorted key order) — the form persistence
// writes and a borrow-mode load aliases straight off a file mapping.
// The arena is only ever read, and nothing is carved out of it, so
// queries need no synchronization with Validate.
type Exact struct {
	dims   []int
	arena  []uint64 // len(counts) stripes of (len(dims)+63)/64 words
	counts []int32
	total  int64

	// Deferred construction (ExactFromState with deferValidation): the
	// content checks wait for Validate, so loading an estimator off a
	// file mapping touches no arena page at open.
	deferred bool
	valOnce  sync.Once
	valErr   error
}

// NewExact builds the estimator from the data collection. The
// distinct projections are stored in sorted key order, so two builds
// over the same data produce identical estimators — persistence
// (which serializes this state verbatim) stays byte-reproducible.
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
		total:  int64(len(data)),
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

// ExactFromState rebuilds an Exact estimator from persisted state: the
// distinct projections of the data onto dims as one word arena (one
// fixed-width stripe per projection), their multiplicities, and the
// collection size. It is the load-side counterpart of State —
// reconstructing from state skips the projection pass and the dedup
// map entirely, and the estimator adopts both slices without copying.
//
// Slice-length arithmetic is always checked here. The content checks
// (positive counts summing to total, no projection bits beyond the
// partition width) read every element; deferValidation postpones them
// to Validate, so a borrow-mode load over a file mapping faults none
// of the estimator's pages at open.
func ExactFromState(dims []int, arena []uint64, counts []int32, total int64, deferValidation bool) (*Exact, error) {
	projWords := (len(dims) + 63) / 64
	if len(arena) != len(counts)*projWords {
		return nil, fmt.Errorf("candest: arena has %d words for %d projections of %d words", len(arena), len(counts), projWords)
	}
	e := &Exact{dims: dims, arena: arena, counts: counts, total: total, deferred: deferValidation}
	if !deferValidation {
		if err := e.validateState(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Validate runs the content checks a deferred ExactFromState skipped.
// The result is sticky. Eagerly built estimators were validated at
// construction and return nil immediately.
func (e *Exact) Validate() error {
	if !e.deferred {
		return nil
	}
	e.valOnce.Do(func() {
		e.valErr = e.validateState()
	})
	return e.valErr
}

func (e *Exact) validateState() error {
	var sum int64
	for i, c := range e.counts {
		if c <= 0 {
			return fmt.Errorf("candest: non-positive count %d at %d", c, i)
		}
		sum += int64(c)
	}
	if sum != e.total {
		return fmt.Errorf("candest: counts sum to %d, total says %d", sum, e.total)
	}
	w := len(e.dims)
	if tail := w % 64; tail != 0 {
		projWords := (w + 63) / 64
		for i := projWords - 1; i < len(e.arena); i += projWords {
			if e.arena[i]>>uint(tail) != 0 {
				return fmt.Errorf("candest: projection %d has bits set beyond dimension %d", i/projWords, w)
			}
		}
	}
	return nil
}

// State exposes the estimator's persistable form: the word arena of
// distinct projections (in the deterministic sorted order NewExact
// produces) and their multiplicities. Both slices are owned by the
// estimator and must not be modified.
func (e *Exact) State() (arena []uint64, counts []int32) {
	return e.arena, e.counts
}

// Dims implements Estimator.
func (e *Exact) Dims() []int { return e.dims }

// DistinctCount returns the number of distinct projections: the cost
// of one histogram scan, which the query path weighs against probing
// a Hamming ball's posting lengths instead.
func (e *Exact) DistinctCount() int { return len(e.counts) }

// Total returns the number of data vectors the estimator was built on.
func (e *Exact) Total() int64 { return e.total }

// CNAll implements Estimator. The returned slice is freshly allocated.
func (e *Exact) CNAll(q bitvec.Vector, maxTau int) []int64 {
	out := make([]int64, maxTau+2)
	e.CNAllInto(q, out)
	return out
}

// CNAllInto fills a caller-provided row: out must have length
// maxTau+2 and is overwritten.
func (e *Exact) CNAllInto(q bitvec.Vector, out []int64) {
	var s Scratch
	e.CNAllIntoScratch(q, out, &s)
}

// Scratch holds the projection and histogram buffers one CNAll
// evaluation needs; reusing it across calls (and across estimators —
// buffers resize to each partition's width) makes estimation
// allocation-free. A Scratch is not safe for concurrent use.
type Scratch struct {
	proj bitvec.Vector
	hist []int64
}

// CNAllIntoScratch is CNAllInto with caller-provided working memory,
// the form query hot paths use.
func (e *Exact) CNAllIntoScratch(q bitvec.Vector, out []int64, s *Scratch) {
	hist := e.histogram(q, s)
	out[0] = 0 // e = −1: negative thresholds generate no candidates
	var cum int64
	for ei := 1; ei < len(out); ei++ {
		if d := ei - 1; d < len(hist) {
			cum += hist[d]
		}
		out[ei] = cum
	}
}

// Histogram returns the exact distance histogram of the data
// projections relative to q (index = distance, length width+1).
// Sub-partitioning and tests build on it.
func (e *Exact) Histogram(q bitvec.Vector) []int64 {
	var s Scratch
	return e.histogram(q, &s)[:len(e.dims)+1]
}

// histogram is the one scan kernel every exact estimate shares: the
// multiplicity-weighted histogram of distances between q's projection
// and each distinct projection, into s.hist. The loop is branch-free
// on purpose — skipping distances beyond a threshold costs a data-
// dependent branch that mispredicts on every other element once the
// threshold nears width/2, several times the price of the add it
// saves. The histogram spans every popcount the stripe words can
// produce (not just width+1), so arena bits a not-yet-run Validate
// would reject still index in bounds.
func (e *Exact) histogram(q bitvec.Vector, s *Scratch) []int64 {
	w := len(e.dims)
	projWords := (w + 63) / 64
	s.proj = s.proj.Resized(w)
	q.ProjectInto(e.dims, s.proj)
	if cap(s.hist) < 64*projWords+1 {
		s.hist = make([]int64, 64*projWords+1)
	}
	hist := s.hist[:64*projWords+1]
	clear(hist)
	counts := e.counts
	switch projWords {
	case 0:
		// Zero-width partition: one (empty) projection at distance 0.
		for _, c := range counts {
			hist[0] += int64(c)
		}
	case 1:
		// Every default build lands here (partition width = dims/m ≈
		// 24): one word per projection, one popcount per element.
		p := s.proj.Words()[0]
		arena := e.arena[:len(counts)]
		for j, x := range arena {
			hist[bits.OnesCount64(x^p)] += int64(counts[j])
		}
	default:
		p := s.proj.Words()
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

// SizeBytes implements Estimator.
func (e *Exact) SizeBytes() int64 {
	words := int64((len(e.dims) + 63) / 64)
	return int64(len(e.counts))*(words*8+4) + int64(len(e.dims))*8
}
