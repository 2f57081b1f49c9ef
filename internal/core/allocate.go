package core

import (
	"slices"

	"gph/internal/alloc"
	"gph/internal/bitvec"
	"gph/internal/candest"
	"gph/internal/hamming"
	"gph/internal/invindex"
)

// scanElemsPerProbe prices one slot-table probe (step to the next
// signature of the ball, hash it, read the slot and the entry behind
// it) in units of one key-scan step (load the next key, XOR, popcount,
// compare). It is a measurement, not a tunable — DESIGN.md §1 has the
// numbers and the sweep — and both users of a Hamming ball read it
// through probeBeatsScan.
const scanElemsPerProbe = 8

// probeBeatsScan is the one rule for getting at the keys of a
// partition that lie in a Hamming ball: enumerate the ball and probe
// for each member, when the ball is small against the keys the
// partition holds, else pass over the keys and keep those inside it.
// Allocation asks it before summing posting lengths over a ball
// (extendRow) and candidate generation before collecting the posting
// lists themselves (gather); the per-element work differs between the
// two, the ratio of a probe to a scan step does not.
func probeBeatsScan(ball uint64, keys int) bool {
	return ball <= uint64(keys/scanElemsPerProbe)
}

// bindQuery points a scratch fresh from the pool (s.q zero) at its
// query: q is projected onto every partition once — allocation and the
// probe loop both read the projections — and every CN row is
// forgotten. The binding lasts until putScratch.
//
//gph:hotpath
func (ix *Index) bindQuery(q bitvec.Vector, s *searchScratch) {
	if s.projs == nil {
		ix.carveProjections(s)
	}
	s.q = q
	for i, dimsI := range ix.parts.Parts {
		q.ProjectInto(dimsI, s.projs[i])
		s.known[i] = -1
	}
	s.rounds, s.scans = 0, 0
}

// carveProjections sizes a new scratch for this index's partitioning:
// one projection view per partition over a single word arena, and the
// per-partition allocation state. Runs once per pooled scratch.
func (ix *Index) carveProjections(s *searchScratch) {
	m := ix.parts.NumParts()
	words := 0
	for _, dimsI := range ix.parts.Parts {
		words += (len(dimsI) + 63) / 64
	}
	arena := make([]uint64, words)
	s.projs = make([]bitvec.Vector, m)
	for i, dimsI := range ix.parts.Parts {
		n := (len(dimsI) + 63) / 64
		s.projs[i] = bitvec.FromWordsSharedUnchecked(len(dimsI), arena[:n:n])
		arena = arena[n:]
	}
	s.table = make(alloc.Table, m)
	s.known = make([]int, m)
	s.widths = ix.parts.Widths()
}

// allocate runs the threshold-allocation phase (Algorithm 1) into the
// pooled scratch, lazily and exactly. s.table[i][e+1] holds CN(qᵢ, e)
// exactly for e ≤ s.known[i] and the monotone lower bound
// CN(qᵢ, s.known[i]) beyond it. Every row starts at its cheapest exact
// prefix — e = 0, one posting-length probe — the DP runs on that
// table, and only the cells it picked are made exact (extendRow)
// before it runs again. A vector the DP picks entirely on exact cells
// is optimal for the true table: its cost there equals its cost here,
// and no vector costs less there than here. The DP breaks ties by a
// fixed order on vectors, so it is also the very vector the DP would
// return on the fully estimated table (EstimateTable) — objective,
// SumCN, fallback and budget included.
//
// Estimators that cannot extend a row radius by radius (sub-partition,
// learned) hand over whole rows up front and the loop settles in its
// first round. The first call on a scratch binds it to q; rows then
// outlive the call — CN(qᵢ, e) does not depend on τ, so SearchGrow's
// later calls, same q and a larger tau, start from what the earlier
// radii learned. Shared by gather and by EstimateSearchCost, which
// exposes the objective to the query planner without running the
// search. Result.Thresholds is backed by the scratch.
//
//gph:hotpath
func (ix *Index) allocate(q bitvec.Vector, tau int, s *searchScratch) alloc.Result {
	if s.q.Dims() == 0 {
		ix.bindQuery(q, s)
	}
	m := ix.parts.NumParts()
	if ix.opts.Allocator == AllocRR {
		return alloc.Result{Thresholds: alloc.RoundRobin(m, tau), SumCN: -1}
	}
	for i := 0; i < m; i++ {
		if !ix.exactRows() {
			if s.known[i] < tau {
				ix.extendRow(i, tau, tau, s)
			}
			continue
		}
		s.fitRow(i, tau)
		if !ix.cnExact(i, 0, s) {
			ix.extendRow(i, 0, tau, s)
		}
	}
	params := alloc.Params{Tau: tau, Widths: s.widths, EnumBudget: ix.opts.EnumBudget}
	for {
		s.rounds++
		res := alloc.AllocateScratch(s.table, params, &s.dp)
		settled := true
		for i, e := range res.Thresholds {
			if !ix.cnExact(i, e, s) {
				ix.extendRow(i, e, tau, s)
				settled = false
			}
		}
		if settled {
			return res
		}
	}
}

// exactRows reports whether the index estimates with the exact
// estimator — the only kind whose rows extend radius by radius, because
// its CN(qᵢ, e) is by construction the posting lengths summed over the
// radius-e ball, read from the partition's own frozen index.
func (ix *Index) exactRows() bool { return ix.opts.Estimator == EstimatorExact }

// frozenExact is the exact estimator of a built index as a
// candest.Estimator, for the eager callers (EstimateTable, SizeBytes):
// CN(qᵢ, ·) from one histogram pass over the partition's frozen keys
// and posting counts, the pass extendRow makes with pooled buffers. It
// holds no per-key state of its own.
type frozenExact struct {
	inv  *invindex.Frozen
	dims []int
}

func (e frozenExact) Dims() []int { return e.dims }

// SizeBytes charges the two fields: the keys and counts are the frozen
// index's, and the dimension list is the partitioning's.
func (e frozenExact) SizeBytes() int64 { return 8 + 24 }

func (e frozenExact) CNAll(q bitvec.Vector, maxTau int) []int64 {
	out := make([]int64, maxTau+2)
	scanRow(e.inv, q.Project(e.dims).Words(), nil, out)
	return out
}

// scanRow fills out with the CN row of the projection proj — out[e+1] =
// CN(proj, e) — from one histogram pass over inv's keys and posting
// counts. hist is working memory, returned for reuse: a bin for every
// distance the projection's words can produce, which is what
// Frozen.Histogram asks for.
func scanRow(inv *invindex.Frozen, proj []uint64, hist, out []int64) []int64 {
	bins := 64*len(proj) + 1
	hist = slices.Grow(hist[:0], bins)[:bins]
	clear(hist)
	inv.Histogram(proj, hist)
	candest.Cumulate(hist, out)
	return hist
}

// cnExact reports whether s.table[i] holds CN(qᵢ, e) itself rather
// than a lower bound. Past the partition width an exact row is
// constant (the ball is the whole space), so knowing it through the
// width is knowing all of it.
func (ix *Index) cnExact(i, e int, s *searchScratch) bool {
	k := s.known[i]
	return e <= k || (k >= len(ix.parts.Parts[i]) && ix.exactRows())
}

// fitRow sizes row i for thresholds up to tau: exact entries are kept
// (they live in the backing array, which may be longer than the row a
// smaller τ used) and the rest carry the lower bound.
func (s *searchScratch) fitRow(i, tau int) {
	row, k, n := s.table[i], s.known[i], tau+2
	if cap(row) < n {
		grown := make([]int64, n, 2*n)
		copy(grown, row[:min(k+2, cap(row))])
		row = grown
	}
	row = row[:n]
	row[0] = 0 // e = −1: negative thresholds generate no candidates
	for j := k + 2; j < n; j++ {
		row[j] = row[k+1]
	}
	s.table[i] = row
}

// extendRow makes row i exact through radius e (≤ tau, the radius the
// row is currently fitted to), by whichever is cheaper: summing
// posting lengths over the radius-e ball of the query's projection, or
// one histogram scan of the partition's frozen keys and posting counts,
// which yields every radius at once — probeBeatsScan decides.
// Estimators other than the exact one have only the whole-row form.
func (ix *Index) extendRow(i, e, tau int, s *searchScratch) {
	if !ix.exactRows() {
		s.table[i] = ix.ests[i].CNAll(s.q, tau)
		s.known[i] = tau
		s.scans++
		return
	}
	w, inv := s.widths[i], ix.inv[i]
	if ball, ok := s.dp.BallSize(w, e); ok && probeBeatsScan(ball, inv.NumKeys()) {
		if cap(s.shell) < e+1 {
			s.shell = make([]int64, e+1, 2*(e+1))
		}
		s.shell = s.shell[:e+1]
		clear(s.shell)
		if w > 0 && w <= 64 {
			b := hamming.NewWordBall(s.projs[i].Words()[0], w, e)
			for ok := true; ok; ok = b.Next() {
				s.shell[b.Dist()] += int64(inv.PostingLenWord(b.Sig))
			}
		} else {
			s.inv, s.center = inv, s.projs[i]
			// Unbudgeted enumeration cannot fail.
			_ = s.enum.Enumerate(s.center, e, 0, s.shellFn)
		}
		row := s.table[i]
		var cum int64
		for d, c := range s.shell {
			cum += c
			row[d+1] = cum
		}
		for j := e + 2; j < len(row); j++ {
			row[j] = cum
		}
		s.known[i] = e
		return
	}
	// One scan yields the whole histogram; keep all of it (through the
	// width, past which the row is constant), so no later, larger τ of
	// the same query scans this partition again.
	n := max(tau, w) + 2
	row := s.table[i]
	if cap(row) < n {
		row = make([]int64, n)
	}
	s.hist = scanRow(inv, s.projs[i].Words(), s.hist, row[:n])
	s.table[i] = row[:tau+2]
	s.known[i] = n - 2
	s.scans++
}

// sumShell consumes one enumerated signature of the ball extendRow is
// summing over a partition wider than a word: its posting length — the
// number of data vectors projecting exactly onto it — is added to the
// shell at its distance from the centre. Bound once per scratch, like
// probe.
//
//gph:hotpath
func (s *searchScratch) sumShell(v bitvec.Vector) bool {
	s.keyBuf = v.AppendKey(s.keyBuf[:0])
	s.shell[v.Hamming(s.center)] += int64(s.inv.PostingLenBytes(s.keyBuf))
	return true
}
