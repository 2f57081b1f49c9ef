package core

import (
	"math"
	"slices"

	"gph/internal/alloc"
	"gph/internal/bitvec"
	"gph/internal/engine"
	"gph/internal/hamming"
	"gph/internal/invindex"
)

// The price list. Everything a query can spend time on is priced in one
// unit, the key-scan step: load the next key of a partition's arena,
// mask it to its ⌈w/8⌉ bytes, XOR, popcount, compare (0.85–1.05 ns; the
// list was fitted when keys were whole words and a step was 1.0–1.25,
// and at the cheaper step a probe reads 8.0–8.5 steps where it read 6.5 and
// a candidate 9.5 where it read 8.1: nearer the prices, and inside the
// spread the table keeps). The prices are measurements of
// this code on one machine's clock, not tunables — BenchmarkPlanPrices
// prints each of them in this unit and DESIGN.md §1 ("What a plan
// costs") keeps the table — and every decision that weighs one way of
// answering against another reads them from here: probe or scan a
// partition (probeBeatsScan), and run the index or scan the collection
// (allocate). The two index-side prices, a probed signature and a posting
// of a generated candidate list, are engine.ProbePrice and
// engine.CandidatePrice: HmSearch bills itself by them too.
const (
	// dpCellPrice prices one run of the allocation DP, per cell of the
	// m × (τ + 2) table it is handed, as measured on a round that walked
	// all of it: 5–8 ns a cell from 24 cells to 500. A round makes only the
	// cells it takes (≈ 2.3 ns a cell of the table where its convex exit
	// fires); the price stays where the routes were fitted to it
	// (DESIGN.md §1).
	dpCellPrice = 6
)

// ScanCost prices answering a query at threshold tau by the verified
// scan, as verify.Codes prices the path AppendWithin will take: the bytes
// read — the word-0 column where tau leaves few survivors, the rows where
// it does not — over the bytes a step moves. It is what allocate weighs
// every plan against, priced under the scan arm in force.
func (ix *Index) ScanCost(tau int) int64 { return ix.codes.ScanSteps(tau) }

// planPrices is what an index's shape — widths, key counts, n — says of
// its plans' prices before any query is bound. Derived state: computed by
// the first query, grown as far in τ as queries ask (growPrices).
type planPrices struct {
	gen [][]int64 // per partition, priceGeneration's row
	// start prices what precedes the first DP round: binding the query, a
	// step a dimension, and the m row starts. A step a dimension is what
	// the gather cost (BenchmarkPlanPrices' "bind": 120–160 ns at 128
	// dimensions, 290–340 at 256); the PEXT arm binds in a fifth to a
	// seventh of that, but the price stays where every route was fitted
	// (ROADMAP 6(g)).
	start int64
	// heads is what a selection reads of the DP's signature rows: they
	// depend on the widths, the enumeration budget and the weight alone.
	heads alloc.Heads
	// floor[τ] is the cheapest any threshold vector can be at τ on any CN
	// table: min over ‖T‖₁ = τ − m + 1, Tᵢ ≥ −1, of Σᵢ genPrice(i, Tᵢ) +
	// engine.CandidatePrice · n · [Tᵢ ≥ wᵢ] — the whole space holds the whole
	// collection, any other CN is at least 0. Non-decreasing in τ.
	floor []int64
}

// pricesThrough returns the plan prices with floor[tau] filled.
func (ix *Index) pricesThrough(tau int) *planPrices {
	if p := ix.prices.Load(); p != nil && tau < len(p.floor) {
		return p
	}
	return ix.growPrices(tau)
}

// growPrices computes the plan prices through tau, or twice as far as last
// time: a knapsack over units u = Σ(Tᵢ + 1) = τ + 1, a partition at a time,
// whose last row holds every smaller τ's floor as well.
func (ix *Index) growPrices(tau int) *planPrices {
	ix.pricesMu.Lock()
	p := ix.prices.Load()
	if p == nil || tau >= len(p.floor) {
		units := tau + 2
		if p != nil {
			units = max(units, 2*len(p.floor))
		}
		full := engine.CandidatePrice * int64(ix.count)
		var dp alloc.Scratch
		p = &planPrices{gen: make([][]int64, len(ix.inv)), start: int64(ix.dims),
			heads: alloc.NewHeads(alloc.Params{Widths: ix.parts.Widths(), EnumBudget: ix.opts.EnumBudget})}
		best, next := make([]int64, units), make([]int64, units)
		for u := 1; u < units; u++ {
			best[u] = math.MaxInt64 / 2
		}
		for i, w := range ix.parts.Widths() {
			row := priceGeneration(w, ix.inv[i].NumKeys(), &dp)
			p.gen[i] = row
			p.start += row[0]
			for u := range next {
				next[u] = best[u] // Tᵢ = −1 generates nothing
				for t := 0; t < u; t++ {
					price := best[u-t-1] + row[min(t, len(row)-1)]
					if t >= w {
						price += full
					}
					next[u] = min(next[u], price)
				}
			}
			best, next = next, best
		}
		p.floor = best[1:]
		ix.prices.Store(p)
	}
	ix.pricesMu.Unlock()
	return p
}

// probeBeatsScan is the one rule for getting at the keys of a
// partition that lie in a Hamming ball: enumerate the ball and probe
// for each member, when the ball is small against the keys the
// partition holds, else pass over the keys and keep those inside it.
// It is asked once per partition and radius, when a scratch prices its
// partitions (priceGeneration); allocation and candidate generation
// read the answer there.
func probeBeatsScan(ball uint64, keys int) bool {
	return ball <= uint64(keys/engine.ProbePrice)
}

// bindQuery points a scratch fresh from the pool (s.q zero) at its
// query: q is projected onto every partition at once, by the index's
// projector — allocation and the probe loop both read the projections —
// and every CN row is forgotten. The binding lasts until putScratch.
//
//gph:hotpath
func (ix *Index) bindQuery(q bitvec.Vector, s *searchScratch) {
	if s.projs == nil {
		ix.carveProjections(s)
	}
	s.q = q
	ix.proj.Project(q, s.arena)
	for i := range s.known {
		s.known[i] = -1
		s.starts[i] = noStart
	}
}

// carveProjections sizes a new scratch for this index's partitioning:
// the projector's arena and a view of it per partition, and the
// per-partition allocation state. Runs once per pooled scratch.
func (ix *Index) carveProjections(s *searchScratch) {
	m := ix.parts.NumParts()
	s.arena, s.projs = ix.proj.Views()
	s.table = make(alloc.Table, m)
	s.known = make([]int, m)
	s.widths = ix.parts.Widths()
	s.gen = ix.pricesThrough(0).gen
	s.startInv = make([]*invindex.Frozen, m)
	s.startWords = make([]uint64, m)
	s.startCounts = make([]uint32, m)
	s.starts = make([]int32, m)
	s.rows = make([]alloc.Start, m)
	for i, w := range s.widths {
		if _, probe := s.genPrice(i, 0); probe && w >= 1 && w <= 64 {
			s.startInv[i] = ix.inv[i]
		}
	}
}

// noStart marks a partition whose projection startRows has not looked
// up for the bound query (searchScratch.starts).
const noStart = -2

// priceGeneration prices getting at the keys of one partition — w bits
// wide, holding the given number of distinct keys — that lie within e of
// a query's projection, for every e: engine.ProbePrice a signature of
// ball(w, e) while probing the ball beats scanning the keys, one step a
// key from there on. The row holds the probed radii's prices and ends
// with the scan's, which every larger radius shares (genPrice). It is a
// function of (w, keys) alone, so an index computes it once (growPrices).
func priceGeneration(w, keys int, dp *alloc.Scratch) []int64 {
	var row []int64
	for e := 0; e <= w; e++ {
		ball, ok := dp.BallSize(w, e)
		if !ok || !probeBeatsScan(ball, keys) {
			break
		}
		row = append(row, int64(ball)*engine.ProbePrice)
	}
	return append(row, int64(keys))
}

// genPrice returns what collecting from partition i whatever lies
// within e ≥ 0 of the query's projection costs, in key-scan steps, and
// how: by probing the ball, or by a pass over the partition's keys.
// Posting lengths (extendRow) and posting lists (generate) are collected
// at the same price and by the same choice.
func (s *searchScratch) genPrice(i, e int) (steps int64, probe bool) {
	row := s.gen[i]
	if scan := len(row) - 1; e >= scan {
		return row[scan], false
	}
	return row[e], true
}

// allocateLoop runs the threshold-allocation phase (Algorithm 1) into the
// pooled scratch, lazily and exactly, and prices the plan it is about to
// return against scanning the collection instead. Every row starts at its
// cheapest exact prefix — e = 0, one posting-length probe (startRows).
// Where τ < m, every threshold is −1 or 0 and round one is first asked as
// a selection, from the increments the starts give each row — its cells
// at e = 0 and 1 (startIncrements, alloc.Select): where it answers, the
// vector is settled on exact cells and no table is built. Otherwise the
// rows are fitted into the table (fitRows) — s.table[i][e+1] holds
// CN(qᵢ, e) exactly for e ≤ s.known[i] and from the partition width on,
// and the monotone lower bound CN(qᵢ, s.known[i]) between — the DP runs on
// it, and only the cells it picked are made exact (extendRow) before it
// runs again. A vector the DP picks entirely on
// exact cells is optimal for the true table: its cost there equals its
// cost here, and no vector costs less there than here. The DP breaks ties
// by a fixed order on vectors, so it is also the very vector the DP would
// return on the fully estimated table (EstimateTable) — objective, SumCN,
// fallback and budget included; the selection answers only where that is
// the DP's vector, and is priced and billed as the round it is.
//
// The scan guard sits inside that loop. Each round's vector is priced
// as it stands — generation exactly, the candidates of a lower-bound
// cell optimistically — and so is allocation itself: the bill holds
// binding the query and its row starts (planPrices.start), every DP
// round and every row refinement so far, and the refinement this round's
// vector asks for. Once bill + plan exceeds limit — ScanCost, unless
// gather forced the index route — the loop stops without spending more
// and the query is scanned. Until then
// the bill alone is below the scan's price, and a plan that settles
// costs no more than what the bill has left of it — so no query spends
// more than twice the scan's price on priced work, however the rounds
// go. The second result is that verdict as one number, in key-scan
// steps: the plan's price when the loop settled on it, and otherwise
// something above limit (what the guard saw when it stopped the
// loop; alloc.FallbackCost when no vector fits the enumeration budget),
// the Result then being whatever the DP last proposed — not a plan, and
// not necessarily on exact cells. A round-robin index does not come here:
// its vector is fixed (roundRobin).
//
// The first call on a scratch binds it to q; rows then outlive the call
// — CN(qᵢ, e) does not depend on τ, so SearchGrow's later calls, same q
// and a larger tau, start from what the earlier radii learned.
// Result.Thresholds is backed by the scratch.
//
//gph:hotpath
func (ix *Index) allocateLoop(q bitvec.Vector, tau int, limit int64, s *searchScratch) (alloc.Result, int64) {
	if s.q.Dims() == 0 {
		ix.bindQuery(q, s)
	}
	ix.startRows(tau, nil, s)
	params := alloc.Params{Tau: tau, Widths: s.widths, EnumBudget: ix.opts.EnumBudget}
	prices := ix.pricesThrough(tau)
	bill := prices.start + ix.roundPrice(tau)
	if bill > limit {
		return alloc.Result{}, bill
	}
	s.rounds++
	if tau >= len(s.table) {
		ix.fitRows(tau, s)
		return ix.refine(alloc.AllocateScratch(s.table, params, &s.dp), params, bill, limit, s)
	}
	ix.startIncrements(tau, prices.heads, s)
	if res, ok := alloc.Select(s.rows, params, &s.dp); ok {
		return ix.refine(res, params, bill, limit, s) // on started rows: settled, or the guard's
	}
	ix.fitRows(tau, s)
	return ix.refine(alloc.AllocateRefused(s.table, params, &s.dp), params, bill, limit, s)
}

// refine prices res, the vector of the round just billed (bill), and
// settles on it, stops at the guard, or makes its cells exact and runs the
// next round on the fitted table, until one of the first two. A
// round-robin vector is fixed: once its cells are exact it is priced again
// as it stands, and no round runs.
//
//gph:hotpath
func (ix *Index) refine(res alloc.Result, params alloc.Params, bill, limit int64, s *searchScratch) (alloc.Result, int64) {
	for {
		if res.Fallback {
			return res, alloc.FallbackCost
		}
		// One pass prices the vector — generation per partition plus
		// engine.CandidatePrice for each posting it is estimated to collect — and
		// what making it exact would take: a cell that is still a lower
		// bound puts its generation price on the bill as well.
		settled, price := true, engine.CandidatePrice*res.SumCN
		for i, e := range res.Thresholds {
			if e < 0 {
				continue
			}
			steps, _ := s.genPrice(i, e)
			price += steps
			if !ix.cnExact(i, e, s) {
				bill += steps
				settled = false
			}
		}
		if bill+price > limit {
			return res, bill + price
		}
		if settled {
			return res, price
		}
		for i, e := range res.Thresholds {
			if !ix.cnExact(i, e, s) {
				ix.extendRow(i, e, params.Tau, s)
			}
		}
		if ix.opts.Allocator == AllocRR {
			res.SumCN = alloc.SumCN(s.table, res.Thresholds, params.Tau)
			continue
		}
		if bill += ix.roundPrice(params.Tau); bill > limit {
			return alloc.Result{}, bill
		}
		s.rounds++
		res = alloc.AllocateScratch(s.table, params, &s.dp)
	}
}

// roundPrice prices one run of the allocation DP at threshold tau.
func (ix *Index) roundPrice(tau int) int64 {
	return dpCellPrice * int64(ix.parts.NumParts()*(tau+2))
}

// allocate is the query path's allocation: allocateLoop, entered only
// where it could say anything but "scan", or roundRobin. Its bill opens at
// start + round and no vector it can propose is priced below floor[τ], so
// where those three pass limit round one's verdict is known from the
// index's shape and τ alone and is returned before the query is bound: no
// projection, no probe, no DP, no counter moved.
//
//gph:hotpath
func (ix *Index) allocate(q bitvec.Vector, tau int, limit int64, s *searchScratch) (alloc.Result, int64) {
	p := ix.pricesThrough(tau)
	if ix.opts.Allocator == AllocRR {
		return ix.roundRobin(q, tau, p, limit, s)
	}
	if price := p.start + ix.roundPrice(tau) + p.floor[tau]; price > limit {
		return alloc.Result{}, price
	}
	return ix.allocateLoop(q, tau, limit, s)
}

// roundRobin is allocate for AllocRR, whose vector is alloc's RoundRobin —
// Multi-Index Hashing's — whatever the query: there is no DP to run or
// bill. What refine's first pass will bill is priced before the query is
// bound, with every CN it does not know yet at 0 — start, every cell's
// generation price, the extension of a cell past its row's start, and the
// whole collection for a cell as wide as its partition; floor[τ] is never
// more — and where that passes limit the verdict is refine's, and as free
// as allocate's. A ball it
// would enumerate past the enumeration budget is not enumerated: the
// query is scanned (alloc.FallbackCost), also before binding. Otherwise
// the rows it reads start as the DP's do — for τ < m that is all it
// reads — and refine prices it as a DP vector, making its cells exact, or
// stops at the guard. Result.Thresholds is backed by the scratch.
//
//gph:hotpath
func (ix *Index) roundRobin(q bitvec.Vector, tau int, p *planPrices, limit int64, s *searchScratch) (alloc.Result, int64) {
	res := alloc.Result{Thresholds: s.dp.RoundRobin(len(p.gen), tau), EffectiveBudget: ix.opts.EnumBudget}
	bound, price := s.q.Dims() != 0, p.start
	for i, e := range res.Thresholds {
		if e < 0 {
			continue
		}
		row := p.gen[i]
		steps := row[min(e, len(row)-1)]
		if e < len(row)-1 && steps/engine.ProbePrice > res.EffectiveBudget {
			return alloc.Result{Fallback: true}, alloc.FallbackCost
		}
		price += steps
		switch {
		case e >= len(ix.parts.Parts[i]):
			price += engine.CandidatePrice * int64(ix.count)
		case e > 0 && !(bound && e <= s.known[i]):
			price += steps // refine bills making the cell exact, the same walk
		}
	}
	if price > limit {
		return alloc.Result{}, price
	}
	if s.q.Dims() == 0 {
		ix.bindQuery(q, s)
	}
	ix.startRows(tau, res.Thresholds, s)
	if tau >= len(res.Thresholds) {
		ix.fitRows(tau, s)
		res.SumCN = alloc.SumCN(s.table, res.Thresholds, tau)
	} else {
		// Every threshold is −1 or 0, and the row starts are the cells the
		// vector reads: no table is fitted.
		for i, e := range res.Thresholds {
			switch {
			case e < 0:
			case s.startInv[i] != nil:
				res.SumCN += int64(s.startCounts[i])
			default:
				res.SumCN += s.table[i][1]
			}
		}
	}
	return ix.refine(res, alloc.Params{Tau: tau}, p.start, limit, s)
}

// startRows makes every row the bound query has not started exact at
// e = 0: CN(qᵢ, 0) is the posting count of the one key equal to the
// projection. Where that key is a word the partition would probe for
// (startInv), the lookups of all partitions are issued side by side
// (invindex.LookupWords) and what they found is kept with the binding —
// the count in startCounts, which is the row's e = 0 cell until fitRows
// writes it into the table, and the entry in starts: generate collects a
// partition allocated T[i] = 0 from its entry instead of hashing and
// probing for the same key again. Each counts as the one posting-length
// probe it is. Every other row is fitted to tau and starts through
// extendRow. Given a vector T, only the rows it reads (T[i] ≥ 0) start;
// nil starts them all.
//
//gph:hotpath
func (ix *Index) startRows(tau int, T []int, s *searchScratch) {
	fresh := false
	for i, inv := range s.startInv {
		if inv != nil && s.known[i] < 0 && (T == nil || T[i] >= 0) {
			s.startWords[i] = s.projs[i].Words()[0]
			fresh = true
		}
	}
	if fresh {
		invindex.LookupWords(s.startInv, s.startWords, s.starts, s.startCounts)
	}
	for i, inv := range s.startInv {
		switch {
		case ix.cnExact(i, 0, s) || T != nil && T[i] < 0:
		case inv != nil:
			s.known[i] = 0
			s.cnProbes++
		default:
			ix.fitRow(i, tau, s)
			ix.extendRow(i, 0, tau, s)
		}
	}
}

// fitRows fits every started row into the table for thresholds up to
// tau: sized (fitRow), a looked-up row's count written at e = 0, and the
// tail past the known radius bounded (boundTail).
//
//gph:hotpath
func (ix *Index) fitRows(tau int, s *searchScratch) {
	for i, inv := range s.startInv {
		ix.fitRow(i, tau, s)
		if inv != nil {
			s.table[i][1] = int64(s.startCounts[i])
		}
		ix.boundTail(i, s)
	}
}

// startIncrements fills s.rows with what a selection reads of each started
// row — its first and second increment and its CN at e = 0 (alloc.Start)
// — from its CN at e = 0 and its cell at e = 1 as the table would hold it
// once fitted: CN(qᵢ, 1) where the row knows it — from the width on it is
// n — and otherwise its lower bound, CN(qᵢ, 0). The table is not touched.
//
//gph:hotpath
func (ix *Index) startIncrements(tau int, h alloc.Heads, s *searchScratch) {
	n := int64(ix.count)
	for i, k := range s.known {
		w, c0, c1 := s.widths[i], n, n
		switch {
		case w == 0:
		case s.startInv[i] != nil:
			c0 = int64(s.startCounts[i])
		default:
			c0 = s.table[i][1]
		}
		switch {
		case w <= 1:
		case k >= 1:
			c1 = s.table[i][:k+2][2] // exact cells outlast a shorter fit
		default:
			c1 = c0
		}
		s.rows[i] = h.Start(i, c0, c1, tau)
	}
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
	alloc.Cumulate(hist, out)
	return hist
}

// cnExact reports whether s.table[i] holds CN(qᵢ, e) itself rather
// than a lower bound. From the partition width on a row needs no
// looking up: the ball is the whole space and holds every vector.
func (ix *Index) cnExact(i, e int, s *searchScratch) bool {
	return e <= s.known[i] || e >= s.widths[i]
}

// fitRow sizes row i for thresholds up to tau: exact entries are
// kept (they live in the backing array, which may be longer than the
// row a smaller τ used); bounding the rest (boundTail) is the caller's.
func (ix *Index) fitRow(i, tau int, s *searchScratch) {
	row, k, n := s.table[i], s.known[i], tau+2
	if cap(row) < n {
		grown := make([]int64, n, 2*n)
		copy(grown, row[:min(k+2, cap(row))])
		row = grown
	}
	row = row[:n]
	row[0] = 0 // e = −1: negative thresholds generate no candidates
	s.table[i] = row
}

// boundTail fills row i past its known radius with what is known
// without looking: the last exact CN, a lower bound because CN grows
// with the radius, and from the partition width on CN itself — the ball
// is the whole space and holds the whole collection. A histogrammed row
// is known through its width, which may lie past the radius the row is
// fitted to: it has no tail, and no cell at from−1 to read. (Two plain
// loops: the second rarely has anything to do, and clamping the first to
// stop where it starts cost a selective query 2 % of its time.)
func (ix *Index) boundTail(i int, s *searchScratch) {
	row, from := s.table[i], s.known[i]+2
	if from > len(row) {
		return
	}
	bound := row[from-1]
	for j := from; j < len(row); j++ {
		row[j] = bound
	}
	for j := max(s.widths[i]+1, from); j < len(row); j++ {
		row[j] = int64(ix.count)
	}
}

// extendRow makes row i exact through radius e (≤ tau, the radius the
// row is currently fitted to), by whichever is cheaper: summing
// posting lengths over the radius-e ball of the query's projection, or
// one histogram scan of the partition's frozen keys and posting counts,
// which yields every radius at once — genPrice says which, and what it
// costs.
func (ix *Index) extendRow(i, e, tau int, s *searchScratch) {
	w, inv := s.widths[i], ix.inv[i]
	if steps, probe := s.genPrice(i, e); probe {
		s.cnProbes += int(steps / engine.ProbePrice)
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
		s.known[i] = e
		ix.boundTail(i, s)
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
	s.cnKeys += inv.NumKeys()
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
