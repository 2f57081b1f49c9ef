// Package alloc implements the paper's online threshold allocation:
// the dynamic programming allocator of Algorithm 1, which distributes
// integer thresholds T[i] ∈ [−1, τ] across m partitions subject to the
// general pigeonhole constraint ‖T‖₁ = τ − m + 1 while minimizing the
// estimated candidate count Σ CN(qᵢ, T[i]). (Eq. 1's coefficient on
// that count, c_access + α·c_verify, is query-independent and so not
// the DP's business; internal/core applies it where it prices a plan.)
//
// The package is pure: it consumes candidate-number tables and knows
// nothing about vectors or indexes, which keeps it trivially testable
// against brute-force enumeration of all valid threshold vectors.
package alloc

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"gph/internal/hamming"
)

// Infeasible is the internal "+∞" cost; exported only through
// documented behaviour (Allocate never returns it).
const infeasible = math.MaxInt64 / 4

// Table holds per-partition candidate-number estimates: Table[i][e+1]
// estimates CN(qᵢ, e) for e ∈ [−1, maxTau]. Entry [0] (e = −1) must be
// 0 and values must be non-decreasing in e. Allocate rests on that twice:
// its optimality argument carries to the brute-force definition only for
// such rows, and allocate cuts a row at the incumbent by stepping up from
// the greedy vector to the first cell above it, which is where the row
// ends only if no later cell comes back down. Validate checks both; every
// estimator's rows pass it (core's TestEstimatorRowsAreMonotone).
type Table [][]int64

// Validate checks structural invariants of the table for maxTau.
func (t Table) Validate(maxTau int) error {
	if len(t) == 0 {
		return fmt.Errorf("alloc: empty CN table")
	}
	for i, row := range t {
		if len(row) != maxTau+2 {
			return fmt.Errorf("alloc: partition %d has %d entries, want %d", i, len(row), maxTau+2)
		}
		if row[0] != 0 {
			return fmt.Errorf("alloc: partition %d has CN(−1) = %d, want 0", i, row[0])
		}
		for e := 1; e < len(row); e++ {
			if row[e] < row[e-1] {
				return fmt.Errorf("alloc: partition %d CN not monotone at e=%d", i, e-1)
			}
		}
	}
	return nil
}

// Cumulate turns a distance histogram (hist[d] = vectors whose
// projection lies at distance d) into a Table row: out[e+1] = CN(q, e),
// the histogram's prefix sum, constant past its end; out[0], the e = −1
// entry, is 0 — negative thresholds generate no candidates.
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

// Params carries the query-independent inputs of one allocation.
type Params struct {
	// Tau is the query threshold.
	Tau int
	// Widths are the partition widths (len must match the CN table).
	Widths []int
	// EnumBudget, when positive, caps per-partition Hamming-ball
	// enumeration; see Allocate.
	EnumBudget int64
	// SigWeight is the cost of enumerating and probing one signature
	// relative to accessing one posting entry. The paper drops the
	// signature term from Eq. 1 because it is negligible at
	// million-vector scale; at smaller scales it is not, so the DP here
	// keeps the term with this weight. A hash probe costs roughly an
	// order of magnitude more than touching a posting entry, hence the
	// default of 8. Negative disables the term; 0 selects the default.
	SigWeight float64
}

// DefaultSigWeight is the default Params.SigWeight.
const DefaultSigWeight = 8

func (p Params) sigWeight() float64 {
	if p.SigWeight < 0 {
		return 0
	}
	if p.SigWeight == 0 {
		return DefaultSigWeight
	}
	return p.SigWeight
}

// Result is a threshold allocation together with its estimated cost.
type Result struct {
	Thresholds []int // T[i] ∈ [−1, tau], Σ = tau − m + 1
	SumCN      int64 // Σ CN(qᵢ, T[i]) under the supplied table
	// Objective is the DP objective: SumCN plus the weighted signature
	// term Σ SigWeight·ball(widthᵢ, T[i]).
	Objective int64
	// EffectiveBudget is the per-partition enumeration budget under
	// which Thresholds is feasible (0 when unconstrained). Callers must
	// enumerate with at least this budget.
	EffectiveBudget int64
	// Fallback is set when no allocation fits even an escalated budget;
	// Thresholds is nil and the caller should answer the query by
	// scanning (signature enumeration would cost more than a scan).
	Fallback bool
}

// Scratch holds the DP's working grids so repeated allocations (one
// or more per query, and one per candidate move during partitioning
// refinement) reuse memory instead of reallocating O(m·τ) cells each
// time. The zero value is ready to use; a Scratch is not safe for
// concurrent use.
type Scratch struct {
	cost      grid[int64]
	opt       grid[int64]
	path      grid[int16]
	cell, inc []int64
	// The selection's input when a round hands it the table's cells
	// (selectRows).
	rows       []Start
	maxE       []int
	sufMax     []int
	thresholds []int
	// The rows selectRows sets apart, and their keys.
	apart     []int
	apartKeys []int64
	// The signature term of the cost rows and each row's feasible prefix
	// (sigRows), with the inputs they were computed from — its own copy of
	// the widths, the budget of the attempt, the weight resolved: they
	// depend on nothing else, and a caller's next allocation rarely
	// changes any.
	sig     grid[int64]
	sigMaxE []int
	sigFor  Params
	// balls memoizes cumulative Hamming-ball sizes by partition width
	// (balls[w][e] = Σ_{j≤e} C(w, j), cut where it overflows): a pure
	// function of w, so entries never go stale, and steady-state
	// allocations do no 128-bit binomial arithmetic at all.
	balls [][]uint64
}

// grid is a reusable rows×cols matrix backed by one flat slice. Cells
// keep whatever an earlier allocation left in them: every user writes
// the cells it later reads.
type grid[T int64 | int16] struct {
	rows [][]T
	flat []T
}

func (g *grid[T]) reshape(rows, cols int) [][]T {
	if cap(g.rows) < rows {
		g.rows = make([][]T, rows)
	}
	g.rows = g.rows[:rows]
	need := rows * cols
	if cap(g.flat) < need {
		g.flat = make([]T, need)
	}
	g.flat = g.flat[:need]
	for i := 0; i < rows; i++ {
		g.rows[i] = g.flat[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return g.rows
}

func sized[T int | int64 | Start](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// ballSizes returns the cumulative ball sizes for a partition of the
// given width: entry e is ball(width, e), and the slice ends at the
// last radius whose size fits in uint64 (or at e = width).
func (s *Scratch) ballSizes(width int) []uint64 {
	if width >= len(s.balls) {
		s.balls = append(s.balls, make([][]uint64, width+1-len(s.balls))...)
	}
	if s.balls[width] == nil {
		row := make([]uint64, 0, 8)
		var total uint64
		for e := 0; e <= width; e++ {
			c, ok := hamming.Binomial(width, e)
			if !ok || total+c < total {
				break
			}
			total += c
			row = append(row, total)
		}
		s.balls[width] = row
	}
	return s.balls[width]
}

// BallSize returns ball(width, e) = Σ_{j≤e} C(width, j) from the memo
// (0 for e < 0, the whole space past the width), and false when it
// does not fit uint64. It is how query paths size a ball without
// redoing the binomials.
func (s *Scratch) BallSize(width, e int) (uint64, bool) {
	if e < 0 {
		return 0, true
	}
	balls := s.ballSizes(width)
	if e = min(e, width); e >= len(balls) {
		return math.MaxUint64, false
	}
	return balls[e], true
}

// Allocate runs Algorithm 1: given the CN table for a query, the
// partition widths, and the query threshold tau, it returns the
// threshold vector minimizing the estimated cost subject to
// ‖T‖₁ = tau − m + 1. Among equally cheap vectors it returns the one
// smallest in (T[m−1], T[m−2], …, T[0]) lexicographic order, so the
// answer is a function of the table alone.
//
// enumBudget, when positive, additionally rejects thresholds whose
// signature enumeration ball C(width, e) would exceed the budget —
// a guard the cost model itself does not capture (it ignores signature
// generation cost, as the paper justifies empirically in Fig. 2(a)).
// If the budget makes the problem infeasible — possible when τ is
// large relative to the partitioning — the budget escalates ×16 up to
// two times (Result.EffectiveBudget reports the final value); beyond
// that the query is cheaper to answer by scanning and Result.Fallback
// is set instead of returning thresholds that would explode
// enumeration. Feasibility depends on the widths alone, never on the
// CN values.
func Allocate(cn Table, p Params) Result {
	var s Scratch
	return AllocateScratch(cn, p, &s)
}

// AllocateScratch is Allocate with caller-provided working memory;
// hot paths keep one Scratch per worker and allocate nothing per call
// after warm-up. Result.Thresholds is backed by the Scratch and valid
// until its next use — callers that retain it copy it.
func AllocateScratch(cn Table, p Params, s *Scratch) Result {
	return allocateScratch(cn, p, true, s)
}

// AllocateRefused is AllocateScratch for a round with τ < m whose
// selection has refused already (Select, on cells equal to cn's at e ≤ 1):
// the same Result, without asking the selection a second time.
func AllocateRefused(cn Table, p Params, s *Scratch) Result {
	return allocateScratch(cn, p, false, s)
}

func allocateScratch(cn Table, p Params, selection bool, s *Scratch) Result {
	if len(cn) != len(p.Widths) {
		panic(fmt.Sprintf("alloc: %d CN rows vs %d widths", len(cn), len(p.Widths)))
	}
	m := len(cn)
	if m == 0 {
		panic("alloc: no partitions")
	}
	if p.Tau < 0 {
		panic(fmt.Sprintf("alloc: negative tau %d", p.Tau))
	}
	if p.EnumBudget <= 0 {
		res, ok := allocate(cn, p, 0, selection, s)
		if !ok {
			// Unreachable: T = [−1, …, −1, tau] is always valid with no budget.
			panic("alloc: no feasible allocation")
		}
		return res
	}
	budget := p.EnumBudget
	for attempt := 0; attempt < 3; attempt++ {
		if res, ok := allocate(cn, p, budget, selection, s); ok {
			res.EffectiveBudget = budget
			return res
		}
		budget *= 16
	}
	return Result{Fallback: true, SumCN: FallbackCost, Objective: FallbackCost}
}

// Heads is what a selection reads of the signature rows: each row's term
// at e = 0 and at e = 1, −1 past the row's feasible prefix (sigRowInto). It
// is a function of the widths, the budget and the weight; τ only cuts the
// prefix, and a selection at τ = 0 reads no term at e = 1.
type Heads [][2]int64

// NewHeads returns the Heads of p's widths, budget and weight (p.Tau
// aside), for a caller that runs many selections under them.
func NewHeads(p Params) Heads {
	var s Scratch
	h := make(Heads, len(p.Widths))
	for i, w := range p.Widths {
		var row [3]int64
		last := sigRowInto(row[:], s.ballSizes(w), w, 1, max(p.EnumBudget, 0), p.sigWeight())
		h[i] = [2]int64{-1, -1}
		for e := 0; e <= last; e++ {
			h[i][e] = row[e+1]
		}
	}
	return h
}

// A Start is what a selection reads of one row: its first increment — its
// cost cell at e = 0 — its second — its cost cell at e = 1 less the first
// — each exhausted past the row's feasible prefix, and its CN at e = 0.
type Start struct{ First, Second, CN0 int64 }

// Start returns row i's Start from its CN cells at e = 0 and 1, cn0 and
// cn1; the second increment is exhausted at τ = 0 too.
func (h Heads) Start(i int, cn0, cn1 int64, tau int) Start {
	r := Start{First: exhausted, Second: exhausted, CN0: cn0}
	if h[i][0] >= 0 {
		r.First = cost(cn0, h[i][0])
		if h[i][1] >= 0 && tau > 0 {
			r.Second = cost(cn1, h[i][1]) - r.First
		}
	}
	return r
}

// Select answers a round with τ < m by selection (selectRows) from each
// row's Start alone — made from its cells at e = 0 and 1 by
// NewHeads(p).Start, the cell at e = 1
// exact or a lower bound that is also the cell of the table the round
// would otherwise be run on — and reports false where the selection
// refuses. The Result it answers is AllocateScratch's on any such table,
// budget included: with τ < m the first attempt always fits (every ball
// at e = 0 holds one signature). Thresholds is backed by the Scratch, as
// there.
//
//gph:hotpath
func Select(rows []Start, p Params, s *Scratch) (Result, bool) {
	m := len(rows)
	if m != len(p.Widths) || p.Tau >= m || p.Tau < 0 {
		panic("alloc: a selection needs τ < m and a Start for every width")
	}
	T := sized(&s.thresholds, m)
	bound, sum, ok := s.selectRows(rows, T, p.Tau)
	if !ok {
		return Result{}, false
	}
	return Result{Thresholds: T, SumCN: sum, Objective: bound, EffectiveBudget: max(p.EnumBudget, 0)}, true
}

// FallbackCost is the cost carried by a Fallback result. It exceeds
// any realistic plan cost so optimizers (Algorithm 2) steer away from
// partitionings that force scans, yet is small enough that summing it
// across a workload cannot overflow.
const FallbackCost = 1 << 40

// exhausted is the next increment of a row at its last threshold (sigRows).
const exhausted = math.MaxInt64

// costCell is the DP's weight of threshold e ≥ 0 on one row, CN(qᵢ, e) +
// SigWeight·ball(widthᵢ, e), kept below the +∞ sentinel; e = −1 weighs 0.
func costCell(cn, sig []int64, e int) int64 { return cost(cn[e+1], sig[e+1]) }

// cost is costCell on the cell's two terms.
func cost(cn, sig int64) int64 { return min(cn+sig, infeasible-1) }

// increment returns what moving a row from threshold e, whose cost cell is
// from, to e + 1 adds, or exhausted.
func increment(cn, sig []int64, e, maxE int, from int64) int64 {
	if e >= maxE {
		return exhausted
	}
	return costCell(cn, sig, e+1) - from
}

// allocate is one attempt under one budget. It makes a cost cell when a
// row is advanced to it; only the recurrence asks for them as a grid.
//
//gph:hotpath
func allocate(cn Table, p Params, enumBudget int64, selection bool, s *Scratch) (Result, bool) {
	m, tau := len(cn), p.Tau
	sig, maxE := s.sigRows(p, enumBudget)
	T, cut := sized(&s.thresholds, m), sized(&s.maxE, m)
	if tau < m && selection { // every threshold −1 or 0: most often a selection
		rows := sized(&s.rows, m)
		for i, row := range cn {
			first := increment(row, sig[i], -1, maxE[i], 0)
			rows[i] = Start{First: first, Second: increment(row, sig[i], 0, maxE[i], first), CN0: row[1]}
		}
		if bound, sum, ok := s.selectRows(rows, T, tau); ok {
			return Result{Thresholds: T, SumCN: sum, Objective: bound}, true
		}
	}
	cell, inc := sized(&s.cell, m), sized(&s.inc, m) // row i's cell at T[i], and the increment to the next
	for i := range T {
		T[i], cell[i] = -1, 0
		inc[i] = increment(cn[i], sig[i], -1, maxE[i], 0)
	}

	// An incumbent: the cost of one feasible vector, found greedily — the
	// cheapest next increment of any row, ties to the lowest, tau + 1 times —
	// or none, exactly when no feasible vector exists (Σ maxE < target).
	// Every row's increments never decrease through T[i] exactly when the
	// ones greedy takes never do: a smaller one can only be the next of the
	// row just advanced, every other row's having lost to it already.
	var bound, last int64
	lastRow, convex := 0, true
	for steps := tau + 1; steps > 0; steps-- {
		best, least := 0, inc[0]
		for i, d := range inc[1:] {
			if d < least {
				best, least = i+1, d
			}
		}
		if least == exhausted {
			return Result{}, false
		}
		convex = convex && least >= last
		bound, last, lastRow = bound+least, least, best
		T[best]++
		cell[best] += least
		inc[best] = increment(cn[best], sig[best], T[best], maxE[best], cell[best])
	}

	// No cell and no partial sum above the incumbent can be part of an
	// optimum (CN estimates are non-negative), so every row is cut at it: up
	// from T[i], whose cell is below it, to the first cell above it — rows
	// never decrease (Table), so no later cell is below it either. That
	// leaves a selective query's rows one or two thresholds. The same steps
	// finish the convexity check; of the increments waiting in inc only the
	// last-advanced row's can be below the one taken before it (as above).
	for i, e := range T {
		at, d, before := cell[i], inc[i], int64(0)
		if i == lastRow {
			before = last
		}
		for d != exhausted && at+d <= bound {
			convex = convex && d >= before
			e, at, before = e+1, at+d, d
			d = increment(cn[i], sig[i], e, maxE[i], at)
		}
		cut[i] = e
	}

	// Where the increments of every row that is left never decrease, the
	// incumbent is the answer, tie-break included. Greedy took the tau + 1
	// cheapest increments of all rows together (a row's come in order, so
	// any set of cheapest ones is a prefix of each row, and cutting cells
	// greedy never reached changed none of its choices). A vector costs the
	// sum of the increments it takes, so a cheapest vector takes every
	// increment below the dearest value v greedy paid and fills up with
	// increments of exactly v — all cheapest vectors differ only in which
	// rows those come from. The recurrence's fixed order — smallest T[m−1],
	// then smallest T[m−2], … — takes them from the lowest rows first, each
	// row's run of v whole before the next row's; greedy, breaking ties by
	// the lowest row, took the same ones. Otherwise the recurrence decides,
	// on the cost rows through their cuts; it never looks past them.
	objective := bound
	if !convex {
		cost := s.cost.reshape(m, tau+2)
		for i, row := range cost {
			row[0] = 0
			for e := 0; e <= cut[i]; e++ {
				row[e+1] = costCell(cn[i], sig[i], e)
			}
		}
		objective = s.recurrence(cost, cut, bound, tau, T)
	}
	return Result{Thresholds: T, SumCN: SumCN(cn, T, tau), Objective: objective}, true
}

// selectRows answers a round with τ < m by selection where that is the
// round's answer, from each row's first increment — its cost cell at
// e = 0 — its second — its cell at e = 1 less that, exhausted for none —
// and its CN cell at e = 0. Every threshold is then −1 or 0, and the τ + 1
// rows at 0 take their first increment. It writes into T the vector that
// puts at 0 the rows whose first increments are the τ + 1 cheapest, ties to
// the lower row, and returns their sum B and the sum of their CN cells. It
// reports false, T unspecified, when some first increment is exhausted or
// some second increment is not above B. Otherwise its answer is greedy's,
// the cut's and the convex exit's: every increment greedy can be offered
// after a first one is a second one, above B and so above each first
// increment it takes (cells are ≥ 0), so greedy takes these τ + 1, in
// ascending order — no decrease — ties to the lower row; B is the
// incumbent, and every row's cell at e = 1, its second increment or more,
// is above it, so each row is cut at e ≤ 0 without passing a decrease. Its
// callers are the round itself, on the table's cells, and Select, on the
// cells the caller has.
func (s *Scratch) selectRows(rows []Start, T []int, tau int) (bound, sum int64, ok bool) {
	all, allCN, least, leastSecond := sums(rows)
	// B is at least τ + 1 times the least first increment, so a second
	// increment no larger refuses before anything is selected: a narrow
	// partition's row, flat past e = 0, or a row whose ball at e = 1 is
	// weighed above the τ + 1 cheapest counts. A product past MaxInt64
	// refuses too — B, summed without wrapping, is past every increment —
	// and so does an exhausted first increment.
	if hi, lo := bits.Mul64(uint64(tau+1), uint64(least)); hi != 0 || lo > math.MaxInt64 || leastSecond <= int64(lo) {
		return 0, 0, false
	}
	// The k rows of the smaller side are set apart: the τ + 1 cheapest, or
	// the m − τ − 1 dearest, the others sharing one threshold.
	k, sign, apart, rest := tau+1, int64(1), 0, -1
	if drop := len(rows) - tau - 1; drop < k {
		k, sign, apart, rest = drop, -1, -1, 0
		bound, sum = all, allCN
	}
	for i := range T {
		T[i] = rest
	}
	for _, i := range s.leastRows(rows, k, sign) {
		T[i] = apart
		bound += sign * rows[i].First
		sum += sign * rows[i].CN0
	}
	return bound, sum, leastSecond > bound
}

// sums returns the sums of the first increments and of the CN cells, and
// the least first increment and the least second one; the least first one
// is exhausted where some row's is.
func sums(rows []Start) (all, allCN, least, leastSecond int64) {
	least, leastSecond = exhausted, exhausted
	for _, r := range rows {
		if r.First == exhausted {
			return 0, 0, exhausted, 0
		}
		all += r.First // may wrap where a dropped row's cell is vast; all − dropped does not
		allCN += r.CN0
		least = min(least, r.First)
		leastSecond = min(leastSecond, r.Second)
	}
	return all, allCN, least, leastSecond
}

// leastRows returns the k rows whose keys — their first increment times
// sign — are least, met in row order, or in reverse where sign < 0: the
// cheapest, ties to the lower row, or the dearest, ties to the higher. One
// pass keeps them in order, ties to the row met first, which a strict
// compare keeps; k = 1 — τ = 0, or lib_selective's one dropped row — is
// one running extreme.
func (s *Scratch) leastRows(starts []Start, k int, sign int64) []int {
	m, rows := len(starts), sized(&s.apart, k)
	from, step := 0, 1
	if sign < 0 {
		from, step = m-1, -1
	}
	if k == 1 {
		best, row := int64(math.MaxInt64), from
		for i := from; uint(i) < uint(m); i += step {
			if key := sign * starts[i].First; key < best {
				best, row = key, i
			}
		}
		rows[0] = row
		return rows
	}
	keys, n := sized(&s.apartKeys, k), 0
	for i := from; k > 0 && uint(i) < uint(m); i += step {
		key := sign * starts[i].First
		if n == k {
			if key >= keys[k-1] {
				continue
			}
			n--
		}
		j := n
		for ; j > 0 && keys[j-1] > key; j-- {
			keys[j], rows[j] = keys[j-1], rows[j-1]
		}
		keys[j], rows[j] = key, i
		n++
	}
	return rows
}

// sigRows returns the signature term of the cost rows — sig[i][e+1] =
// SigWeight·ball(widthᵢ, e), rounded down — and each row's feasible
// prefix (sigRowInto). They are a function of the widths, τ, the budget and
// the weight, so they are recomputed only when one of those differs, by
// value, from the call before: a query's rounds share all four, and
// partition refinement and a kNN query's growing radius, which reuse one
// Scratch across partitionings and radii, change them under it.
func (s *Scratch) sigRows(p Params, enumBudget int64) (sig [][]int64, maxE []int) {
	m, weight := len(p.Widths), p.sigWeight()
	if k := &s.sigFor; k.Tau != p.Tau || k.EnumBudget != enumBudget || k.SigWeight != weight || !slices.Equal(k.Widths, p.Widths) {
		*k = Params{Tau: p.Tau, Widths: append(k.Widths[:0], p.Widths...), EnumBudget: enumBudget, SigWeight: weight}
		sig, maxE = s.sig.reshape(m, p.Tau+2), sized(&s.sigMaxE, m)
		for i, w := range p.Widths {
			maxE[i] = sigRowInto(sig[i], s.ballSizes(w), w, p.Tau, enumBudget, weight)
		}
	}
	return s.sig.rows, s.sigMaxE[:m]
}

// sigRowInto computes, for one partition of the given width, the
// signature term of each threshold e ∈ [−1, tau] into row[e+1]: the
// weighted Hamming-ball size (balls is Scratch.ballSizes(width)). It
// returns the largest feasible threshold — the last one whose ball fits
// uint64 and the enumeration budget and whose weight stays below the +∞
// sentinel. Ball sizes grow with the radius, so feasibility is a prefix;
// cells beyond it are left unwritten.
func sigRowInto(row []int64, balls []uint64, width, tau int, enumBudget int64, weight float64) int {
	row[0] = 0
	for e := 0; e <= tau; e++ {
		if e >= len(balls) && len(balls) <= width {
			return e - 1 // ball(width, e) overflows
		}
		total := balls[min(e, width)] // past the width the ball is the whole space
		if enumBudget > 0 && total > uint64(enumBudget) {
			return e - 1
		}
		sig := int64(weight * float64(total))
		if sig < 0 || sig >= infeasible {
			return e - 1
		}
		row[e+1] = sig
	}
	return tau
}

// recurrence runs Algorithm 1's dynamic program over the cost rows cut
// at the incumbent bound, writes the cheapest vector — among equally
// cheap ones the smallest in (T[m−1], T[m−2], …, T[0]) order — into T and
// returns its cost.
func (s *Scratch) recurrence(cost [][]int64, maxE []int, bound int64, tau int, T []int) int64 {
	m := len(cost)
	target := tau - m + 1
	// sufMax[i] = Σ_{j≥i} maxE[j]: what partitions i.. can still add.
	sufMax := sized(&s.sufMax, m+1)
	sufMax[m] = 0
	for i := m - 1; i >= 0; i-- {
		sufMax[i] = sufMax[i+1] + maxE[i]
	}

	// OPT[i][t+off] = min Σ_{j≤i} cost(q_j, e_j) with Σ e_j = t,
	// e_j ∈ [−1, maxE[j]], for the prefix sums t ∈ [lo, hi] from which
	// the remaining partitions can still reach the target.
	off := m
	opt := s.opt.reshape(m, tau+m+1)
	path := s.path.reshape(m, tau+m+1)
	lo, hi := max(-1, target-sufMax[1]), min(maxE[0], target+m-1)
	for t := lo; t <= hi; t++ {
		opt[0][t+off] = cost[0][t+1]
		path[0][t+off] = int16(t)
	}
	for i := 1; i < m; i++ {
		prevLo, prevHi := lo, hi
		lo, hi = max(prevLo-1, target-sufMax[i+1]), min(prevHi+maxE[i], target+m-1-i)
		for t := lo; t <= hi; t++ {
			best, bestE := int64(infeasible), 0
			for e := max(-1, t-prevHi); e <= min(maxE[i], t-prevLo); e++ {
				c := opt[i-1][t-e+off] + cost[i][e+1]
				if c < best && c <= bound {
					best, bestE = c, e
				}
			}
			opt[i][t+off] = best
			path[i][t+off] = int16(bestE)
		}
	}
	if lo != target || hi != target || opt[m-1][target+off] >= infeasible {
		// Unreachable: the greedy vector is feasible and costs bound.
		panic("alloc: DP lost the incumbent")
	}
	t := target
	for i := m - 1; i >= 0; i-- {
		e := int(path[i][t+off])
		T[i] = e
		t -= e
	}
	return opt[m-1][target+off]
}

// RoundRobin is the baseline allocator of §VII-C: thresholds start at
// −1 and are incremented cyclically until they sum to tau − m + 1, so
// all partitions receive near-equal thresholds regardless of the data —
// ⌊τ/m⌋ on the first τ − m·⌊τ/m⌋ + 1 partitions and one less on the
// rest, Multi-Index Hashing's vector. The vector is backed by s, as an
// allocation's is, and valid until its next use.
func (s *Scratch) RoundRobin(m, tau int) []int {
	if m <= 0 {
		panic("alloc: RoundRobin with no partitions")
	}
	T := sized(&s.thresholds, m)
	each, more := (tau+1)/m, (tau+1)%m
	for i := range T {
		T[i] = each - 1
	}
	for i := range more {
		T[i]++
	}
	return T
}

// SumCN evaluates a threshold vector against a CN table: the SumCN of
// an allocation.
func SumCN(cn Table, T []int, tau int) int64 {
	var s int64
	for i, e := range T {
		if e < 0 {
			continue
		}
		if e > tau {
			e = tau
		}
		s += cn[i][e+1]
	}
	return s
}

// CheckVector verifies that T satisfies the general pigeonhole
// constraint for (m, tau): every entry in [−1, tau] and Σ = tau − m + 1.
func CheckVector(T []int, tau int) error {
	sum := 0
	for i, e := range T {
		if e < -1 || e > tau {
			return fmt.Errorf("alloc: T[%d] = %d out of [−1, %d]", i, e, tau)
		}
		sum += e
	}
	if want := tau - len(T) + 1; sum != want {
		return fmt.Errorf("alloc: ‖T‖₁ = %d, want %d", sum, want)
	}
	return nil
}
