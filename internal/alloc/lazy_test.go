package alloc

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gph/internal/hamming"
)

// bruteObjective enumerates every threshold vector with entries in
// [−1, tau] summing to tau−m+1 whose balls all fit budget (0 = no
// budget) and returns the minimal Σ (CN + SigWeight·ball), together
// with the optimal vector that is smallest in (T[m−1], …, T[0]) order —
// the one Allocate documents it returns. ok=false when no vector fits.
func bruteObjective(cn Table, p Params, budget int64) (best int64, bestT []int, ok bool) {
	m, tau := len(cn), p.Tau
	weight := p.sigWeight()
	T := make([]int, m)
	// Fill from the last partition down, thresholds ascending, so the
	// first vector to reach a cost is the smallest in the documented
	// order among its equals.
	var rec func(i int, sum int64, remaining int)
	rec = func(i int, sum int64, remaining int) {
		if i < 0 {
			if remaining == 0 && (!ok || sum < best) {
				best, bestT, ok = sum, slices.Clone(T), true
			}
			return
		}
		for e := -1; e <= tau; e++ {
			var c int64
			if e >= 0 {
				ball, fits := hamming.BallSize(p.Widths[i], e)
				if !fits || (budget > 0 && ball > uint64(budget)) {
					break
				}
				c = cn[i][e+1] + int64(weight*float64(ball))
			}
			T[i] = e
			rec(i-1, sum+c, remaining-e)
		}
	}
	rec(m-1, 0, tau-m+1)
	return best, bestT, ok
}

// bruteAllocate is what AllocateScratch promises, by enumeration: the
// optimum under the first of the three escalating budgets that admits
// any vector, or a fallback.
func bruteAllocate(cn Table, p Params) Result {
	if p.EnumBudget <= 0 {
		obj, T, _ := bruteObjective(cn, p, 0)
		return Result{Thresholds: T, Objective: obj, SumCN: SumCN(cn, T, p.Tau)}
	}
	budget := p.EnumBudget
	for attempt := 0; attempt < 3; attempt++ {
		if obj, T, ok := bruteObjective(cn, p, budget); ok {
			return Result{Thresholds: T, Objective: obj, SumCN: SumCN(cn, T, p.Tau), EffectiveBudget: budget}
		}
		budget *= 16
	}
	return Result{Fallback: true, SumCN: FallbackCost, Objective: FallbackCost}
}

func sameResult(a, b Result) bool {
	return a.Objective == b.Objective && a.SumCN == b.SumCN && a.Fallback == b.Fallback &&
		a.EffectiveBudget == b.EffectiveBudget && slices.Equal(a.Thresholds, b.Thresholds)
}

// randomCase draws a small allocation problem. Tables are monotone
// with many repeated values (so equally cheap vectors are common and
// the tie-break matters); budgets range from ones that force
// escalation and fallback to none at all.
func randomCase(r *rand.Rand) (Table, Params) {
	m := 1 + r.Intn(4)
	tau := r.Intn(8)
	cn := make(Table, m)
	for i := range cn {
		row := make([]int64, tau+2)
		for e := 1; e < len(row); e++ {
			row[e] = row[e-1] + int64(r.Intn(3)*r.Intn(20))
		}
		cn[i] = row
	}
	widths := make([]int, m)
	for i := range widths {
		widths[i] = 1 + r.Intn(9)
	}
	p := Params{Tau: tau, Widths: widths, EnumBudget: []int64{0, 1, 3, 12, 200, 1 << 18}[r.Intn(6)]}
	if r.Intn(3) == 0 {
		p.SigWeight = -1
	}
	return cn, p
}

// TestAllocateMatchesEnumeration checks the incumbent-bounded DP — the
// greedy bound, the pruned rows, the narrowed prefix-sum ranges, the
// memoized ball sizes — against plain enumeration of every feasible
// vector: same objective, same vector among ties, same budget
// escalation, same fallback. One Scratch serves every case, as one
// serves every query.
func TestAllocateMatchesEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var s Scratch
	fallbacks, escalations := 0, 0
	for n := 0; n < 3000; n++ {
		cn, p := randomCase(r)
		got, want := AllocateScratch(cn, p, &s), bruteAllocate(cn, p)
		if !sameResult(got, want) {
			t.Fatalf("case %d (tau=%d widths=%v budget=%d weight=%v):\n table %v\n DP    %+v\n brute %+v",
				n, p.Tau, p.Widths, p.EnumBudget, p.SigWeight, cn, got, want)
		}
		if got.Fallback {
			fallbacks++
		} else if got.EffectiveBudget > p.EnumBudget {
			escalations++
		}
	}
	if fallbacks == 0 || escalations == 0 {
		t.Fatalf("cases covered %d fallbacks and %d escalations; want both", fallbacks, escalations)
	}
}

// TestLazyRefinementSettlesOnOptimum is the argument behind the query
// path's lazy allocation, in isolation. Each row is exact through some
// radius and carries its last exact value — a lower bound, CN being
// monotone — beyond it; the DP runs, the cells it picked are made
// exact, and it runs again until it picks exact cells only. That
// result is the enumerated optimum of the true table, vector included,
// however little of the table was ever revealed.
func TestLazyRefinementSettlesOnOptimum(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	var s Scratch
	partial := 0
	for n := 0; n < 3000; n++ {
		truth, p := randomCase(r)
		m := len(truth)
		known := make([]int, m)
		bound := make(Table, m)
		reveal := func(i, e int) {
			known[i] = e
			for d := range bound[i] {
				bound[i][d] = truth[i][min(d, e+1)]
			}
		}
		for i := range bound {
			bound[i] = make([]int64, p.Tau+2)
			reveal(i, r.Intn(2)-1)
		}
		var got Result
		for rounds := 0; ; rounds++ {
			if rounds > m*(p.Tau+2) {
				t.Fatalf("case %d: not settled after %d rounds", n, rounds)
			}
			got = AllocateScratch(bound, p, &s)
			settled := true
			for i, e := range got.Thresholds {
				if e > known[i] {
					reveal(i, e)
					settled = false
				}
			}
			if settled {
				break
			}
		}
		if want := bruteAllocate(truth, p); !sameResult(got, want) {
			t.Fatalf("case %d (tau=%d widths=%v budget=%d):\n truth %v\n known %v\n lazy  %+v\n brute %+v",
				n, p.Tau, p.Widths, p.EnumBudget, truth, known, got, want)
		}
		for i := range known {
			if known[i] < p.Tau-1 {
				partial++
				break
			}
		}
	}
	if partial == 0 {
		t.Fatal("every case revealed its whole table; the lazy path was not exercised")
	}
}

// eagerAllocate is the reference allocate is held to: the round as it ran
// while it filled every cost cell first — all m × (τ + 2) of them, then the
// greedy incumbent over the grid, every row cut from the top down, a
// convexity pass over what is left — under the same budget escalation. With
// takeExit false the recurrence decides every time. exit reports whether
// the rows of the attempt that decided were convex; s.maxE is left holding
// that attempt's cuts.
func eagerAllocate(cn Table, p Params, s *Scratch, takeExit bool) (res Result, exit bool) {
	solve := func(budget int64) (Result, bool) {
		cost, maxE := s.costRows(cn, p, budget)
		T := make([]int, len(cn))
		bound, ok := greedy(cost, maxE, T, p.Tau+1)
		if !ok {
			return Result{}, false
		}
		cut(cost, maxE, bound)
		exit = convex(cost, maxE)
		objective := bound
		if !exit || !takeExit {
			objective = s.recurrence(cost, maxE, bound, p.Tau, T)
		}
		return Result{Thresholds: T, SumCN: SumCN(cn, T, p.Tau), Objective: objective, EffectiveBudget: budget}, true
	}
	if p.EnumBudget <= 0 {
		res, _ = solve(0)
		return res, exit
	}
	budget := p.EnumBudget
	for attempt := 0; attempt < 3; attempt++ {
		if res, ok := solve(budget); ok {
			return res, exit
		}
		budget *= 16
	}
	return Result{Fallback: true, SumCN: FallbackCost, Objective: FallbackCost}, false
}

// costRows fills the reference's weights: cost[i][e+1] = CN(qᵢ, e) +
// SigWeight·ball(widthᵢ, e) for e ∈ [−1, maxE[i]], maxE[i] being the
// largest threshold whose ball fits uint64 and the enumeration budget and
// whose weight stays below the +∞ sentinel; cells beyond it are left
// unwritten. Both slices are the scratch's.
func (s *Scratch) costRows(cn Table, p Params, enumBudget int64) (cost [][]int64, maxE []int) {
	m := len(cn)
	sig, sigMaxE := s.sigRows(p, enumBudget)
	cost = s.cost.reshape(m, p.Tau+2)
	maxE = sized(&s.maxE, m)
	for i, row := range cost {
		maxE[i] = sigMaxE[i]
		cnRow, sigRow := cn[i][:maxE[i]+2], sig[i][:maxE[i]+2]
		row = row[:len(cnRow)]
		row[0] = 0 // e = −1 enumerates nothing and admits no candidates
		for e := 1; e < len(row); e++ {
			row[e] = min(cnRow[e]+sigRow[e], infeasible-1)
		}
	}
	return cost, maxE
}

// greedy builds one feasible threshold vector into T — every entry
// starts at −1 and the cheapest next increment is taken steps times —
// and returns its cost. It fails exactly when no feasible vector
// exists (Σ maxE < target).
func greedy(cost [][]int64, maxE, T []int, steps int) (int64, bool) {
	for i := range T {
		T[i] = -1
	}
	var total int64
	for ; steps > 0; steps-- {
		best, bestInc := -1, int64(0)
		for i, e := range T {
			if e >= maxE[i] {
				continue
			}
			if inc := cost[i][e+2] - cost[i][e+1]; best < 0 || inc < bestInc {
				best, bestInc = i, inc
			}
		}
		if best < 0 {
			return 0, false
		}
		T[best]++
		total += bestInc
	}
	return total, true
}

// cut lowers every row's last threshold maxE[i] to the last one whose
// cell does not exceed bound.
func cut(cost [][]int64, maxE []int, bound int64) {
	for i, row := range cost {
		for maxE[i] >= 0 && row[maxE[i]+1] > bound {
			maxE[i]--
		}
	}
}

// convex reports whether the increments of every row, up to its cut,
// never decrease.
func convex(cost [][]int64, maxE []int) bool {
	for i, row := range cost {
		row = row[:maxE[i]+2]
		for e := 2; e < len(row); e++ {
			if row[e]-row[e-1] < row[e-1]-row[e-2] {
				return false
			}
		}
	}
	return true
}

// tiedCase draws an allocation problem built to tie and to sit on both
// sides of the convex exit: increments drawn from a handful of values, in
// runs, most rows sorted into convexity and some left as drawn, with and
// without the signature term (whose own increments turn concave past half
// a width), under no budget, budgets that bite and budgets that escalate.
func tiedCase(r *rand.Rand) (Table, Params) {
	m, tau := 1+r.Intn(6), r.Intn(10)
	cn := make(Table, m)
	for i := range cn {
		incs := make([]int64, tau+1)
		for e := range incs {
			if e > 0 && r.Intn(2) == 0 {
				incs[e] = incs[e-1] // a run
			} else {
				incs[e] = int64(r.Intn(4) * r.Intn(12))
			}
		}
		if r.Intn(4) != 0 {
			slices.Sort(incs)
		}
		row := make([]int64, tau+2)
		for e, inc := range incs {
			row[e+1] = row[e] + inc
		}
		cn[i] = row
	}
	p := Params{Tau: tau, Widths: make([]int, m), EnumBudget: []int64{0, 0, 1, 5, 40, 1 << 18}[r.Intn(6)]}
	for i := range p.Widths {
		p.Widths[i] = 1 + r.Intn(12)
	}
	if r.Intn(2) == 0 {
		p.SigWeight = -1
	}
	return cn, p
}

// TestConvexExitIsTheRecurrence: where the rows cut at the incumbent are
// convex, allocate returns the incumbent without running the recurrence,
// and that is the recurrence's answer — vector, tie-break, objective,
// budget and fallback — on tables built to tie (tiedCase). The exit has to
// fire on most cases and stay shut on some, or the comparison says nothing.
func TestConvexExitIsTheRecurrence(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	var s, ref Scratch
	const cases = 120000
	exits, escalations := 0, 0
	for n := 0; n < cases; n++ {
		cn, p := tiedCase(r)
		got := AllocateScratch(cn, p, &s)
		want, exit := eagerAllocate(cn, p, &ref, false)
		if !sameResult(got, want) {
			t.Fatalf("case %d (tau=%d widths=%v budget=%d weight=%v, exit=%v):\n table %v\n allocate   %+v\n recurrence %+v",
				n, p.Tau, p.Widths, p.EnumBudget, p.SigWeight, exit, cn, got, want)
		}
		if exit {
			exits++
		}
		if !got.Fallback && got.EffectiveBudget > p.EnumBudget {
			escalations++
		}
	}
	t.Logf("the exit fired on %d of %d cases; %d escalated their budget", exits, cases, escalations)
	if exits < cases/2 || exits > cases*9/10 || escalations < cases/100 {
		t.Fatalf("the exit fired on %d of %d cases and %d escalated; want it on more than half, off on a tenth, and a hundredth escalating",
			exits, cases, escalations)
	}
}

// TestScratchAcrossWidthsAndTaus: a Scratch keeps the signature rows of
// the call before, so one Scratch taken through calls that change one of
// the things those rows depend on at a time — a width, τ, the budget, the
// weight — has to answer each like a fresh one. Partition refinement
// (new widths per candidate move) and kNN's growing radius (new τ per
// round) are the callers that do this to theirs.
func TestScratchAcrossWidthsAndTaus(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	var shared Scratch
	_, p := randomCase(r)
	for n := 0; n < 20000; n++ {
		switch r.Intn(5) {
		case 0:
			p.Widths = slices.Clone(p.Widths) // a caller's own slice, changed between calls
			p.Widths[r.Intn(len(p.Widths))] = 1 + r.Intn(9)
		case 1:
			p.Tau = r.Intn(8)
		case 2:
			p.EnumBudget = []int64{0, 1, 3, 12, 200, 1 << 18}[r.Intn(6)]
		case 3:
			p.SigWeight = []float64{-1, 0, 0.5, 3}[r.Intn(4)]
		case 4:
			_, p = randomCase(r) // everything at once, the partition count too
		}
		cn := randomTable(r, len(p.Widths), p.Tau)
		var fresh Scratch
		got := AllocateScratch(cn, p, &shared)
		if want := AllocateScratch(cn, p, &fresh); !sameResult(got, want) {
			t.Fatalf("call %d (tau=%d widths=%v budget=%d weight=%v):\n table %v\n shared scratch %+v\n fresh scratch  %+v",
				n, p.Tau, p.Widths, p.EnumBudget, p.SigWeight, cn, got, want)
		}
	}
}

// selected is AllocateScratch, also reporting whether the selection
// answered (selectRows): every other way through a round writes each row's
// cut into s.maxE, and the selection writes none.
func selected(cn Table, p Params, s *Scratch) (Result, bool) {
	cuts := sized(&s.maxE, len(cn))
	for i := range cuts {
		cuts[i] = math.MinInt
	}
	res := AllocateScratch(cn, p, s)
	return res, !res.Fallback && !slices.ContainsFunc(cuts, func(c int) bool { return c != math.MinInt })
}

// selectiveCase draws an allocation problem with τ < m around the
// selection's edges: first increments from a few small values, so that the
// (τ + 1)-th cheapest often ties with the next across the drop boundary,
// with the signature term off on most cases (a cell is then its CN) and on
// the rest; rows past e = 0 as drawn, monotone. On most cases one row's
// second increment is then set to B − 1, B or B + 1, B being the sum of
// the τ + 1 cheapest first increments. Budgets bite — a budget below a
// row's radius-1 ball leaves that row e = 0 alone — but cannot escalate:
// e = 0's ball is 1, so τ + 1 ≤ m rows always fit.
func selectiveCase(r *rand.Rand) (Table, Params) {
	m := 1 + r.Intn(8)
	tau := r.Intn(m)
	p := Params{Tau: tau, Widths: make([]int, m), EnumBudget: []int64{0, 0, 1, 5, 40, 1 << 18}[r.Intn(6)]}
	for i := range p.Widths {
		p.Widths[i] = 1 + r.Intn(12)
	}
	if r.Intn(4) != 0 {
		p.SigWeight = -1
	}
	cn := make(Table, m)
	for i := range cn {
		row := make([]int64, tau+2)
		row[1] = int64(r.Intn(4) * r.Intn(3))
		for e := 2; e < len(row); e++ {
			row[e] = row[e-1] + int64(r.Intn(4)*r.Intn(12))
		}
		cn[i] = row
	}
	if r.Intn(4) == 0 {
		return cn, p
	}
	_, second, B := selectionEdges(cn, p)
	j := r.Intn(m)
	want := B + int64(r.Intn(3)) - 1
	// The cells' signature part is fixed, so the row's CN at e = 1 moves by
	// what its second increment has to, and the rest of the row with it.
	if second[j] == exhausted || want < second[j]-(cn[j][2]-cn[j][1]) {
		return cn, p
	}
	for e := 2; e < len(cn[j]); e++ {
		cn[j][e] += want - second[j]
	}
	return cn, p
}

// selectionEdges returns, for a table with τ < m, each row's first and
// second increment of cost (exhausted where a row has none) and B, the sum
// of the τ + 1 cheapest first increments, ties to the lower row.
func selectionEdges(cn Table, p Params) (first, second []int64, B int64) {
	var s Scratch
	sig, maxE := s.sigRows(p, max(p.EnumBudget, 0))
	m := len(cn)
	first, second = make([]int64, m), make([]int64, m)
	order := make([]int, m)
	for i := range cn {
		first[i] = increment(cn[i], sig[i], -1, maxE[i], 0)
		second[i] = increment(cn[i], sig[i], 0, maxE[i], first[i])
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(first[a], first[b]) })
	for _, i := range order[:p.Tau+1] {
		B += first[i]
	}
	return first, second, B
}

// starts returns each row's Start, as Select takes them, made from its
// cells at e = 0 and 1 by NewHeads(p); a row at τ = 0 has no cell at e = 1,
// and none is read there.
func starts(cn Table, p Params) []Start {
	h, rows := NewHeads(p), make([]Start, len(cn))
	for i, row := range cn {
		rows[i] = h.Start(i, row[1], row[min(2, len(row)-1)], p.Tau)
	}
	return rows
}

// TestSelectionIsTheRecurrence: a round with τ < m that the selection
// answers returns what the recurrence returns — vector, tie-break,
// objective, SumCN, budget — on tables built around its edges
// (selectiveCase), against the eager reference with the recurrence deciding
// every time and, where few enough vectors exist, against enumeration. It
// has to fire on a stated share of cases and stay shut on another, and the
// cases have to cover first increments tied across the drop boundary, a
// second increment equal to B (where it must not fire) and one equal to
// B + 1, and budgets that leave rows no second increment. Select, handed
// only each row's Start made from its cells at e = 0 and 1, answers exactly where
// the round's selection does, with the same Result; where it refuses,
// AllocateRefused gives the round's Result without it. A refusal by the
// bound — the least second increment at most τ + 1 times the least first
// one, which B is at least — is one the selection would have made; the log
// gives the share of refusals it makes.
func TestSelectionIsTheRecurrence(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	var s, ref, single Scratch
	const cases = 60000
	fired, tied, atB, aboveB, budgeted, byBound := 0, 0, 0, 0, 0, 0
	for n := 0; n < cases; n++ {
		cn, p := selectiveCase(r)
		got, sel := selected(cn, p, &s)
		want, _ := eagerAllocate(cn, p, &ref, false)
		if !sameResult(got, want) {
			t.Fatalf("case %d (tau=%d widths=%v budget=%d weight=%v, selected=%v):\n table %v\n allocate   %+v\n recurrence %+v",
				n, p.Tau, p.Widths, p.EnumBudget, p.SigWeight, sel, cn, got, want)
		}
		if vectors := math.Pow(float64(p.Tau+2), float64(len(cn))); vectors <= 1<<12 {
			if want := bruteAllocate(cn, p); !sameResult(got, want) {
				t.Fatalf("case %d (tau=%d widths=%v budget=%d weight=%v, selected=%v):\n table %v\n allocate    %+v\n enumeration %+v",
					n, p.Tau, p.Widths, p.EnumBudget, p.SigWeight, sel, cn, got, want)
			}
		}
		if got.EffectiveBudget != max(p.EnumBudget, 0) {
			t.Fatalf("case %d: budget %d escalated to %d with τ < m", n, p.EnumBudget, got.EffectiveBudget)
		}
		if res, ok := Select(starts(cn, p), p, &single); ok != sel || (ok && !sameResult(res, got)) {
			t.Fatalf("case %d (tau=%d widths=%v budget=%d weight=%v): the round selected=%v, Select on the heads %v\n table %v\n allocate %+v\n Select   %+v",
				n, p.Tau, p.Widths, p.EnumBudget, p.SigWeight, sel, ok, cn, got, res)
		}
		if res := AllocateRefused(cn, p, &single); !sel && !sameResult(res, got) {
			t.Fatalf("case %d (tau=%d widths=%v budget=%d weight=%v): refused, and AllocateRefused gives %+v, the round %+v\n table %v",
				n, p.Tau, p.Widths, p.EnumBudget, p.SigWeight, res, got, cn)
		}
		first, second, B := selectionEdges(cn, p)
		least := slices.Min(second)
		if sel != (least > B) {
			t.Fatalf("case %d (tau=%d widths=%v budget=%d weight=%v): selected=%v, with B=%d and least second increment %d:\n table %v",
				n, p.Tau, p.Widths, p.EnumBudget, p.SigWeight, sel, B, least, cn)
		}
		if cheapest := slices.Min(first); cheapest != exhausted && least <= int64(p.Tau+1)*cheapest {
			byBound++
		}
		if sorted := slices.Sorted(slices.Values(first)); p.Tau+1 < len(first) && sorted[p.Tau] == sorted[p.Tau+1] {
			tied++
		}
		switch {
		case least == B:
			atB++
		case least == B+1:
			aboveB++
		}
		if sel {
			fired++
			if p.Tau > 0 && slices.Contains(second, exhausted) {
				budgeted++ // at τ = 0 no row has a second increment anyway
			}
		}
	}
	t.Logf("the selection answered %d of %d cases: %d tied across the drop boundary, %d had a second increment of B and %d of B + 1, %d selections left rows no second increment; the bound made %d of the %d refusals",
		fired, cases, tied, atB, aboveB, budgeted, byBound, cases-fired)
	if fired < cases/4 || fired > cases*9/10 || tied < cases/10 || atB < cases/50 || aboveB < cases/50 || budgeted < cases/50 || byBound < cases/50 {
		t.Fatalf("the selection answered %d of %d cases (%d tied, %d at B, %d at B + 1, %d budgeted, %d refused by the bound); want it on a quarter to nine tenths, and each edge on a fiftieth (ties a tenth)",
			fired, cases, tied, atB, aboveB, budgeted, byBound)
	}
}

// TestSelectionReadsNoCellPastOne: a round the selection answers reads no
// CN cell past e = 1. Every cell from e = 2 on is overwritten, with a value
// below every real one and with one above, either of which turns greedy or
// the cut if read, and the Result — and that the selection gave it — has to
// be the clean table's.
func TestSelectionReadsNoCellPastOne(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	var s Scratch
	const cases = 20000
	answered, poisoned := 0, 0
	for n := 0; n < cases; n++ {
		cn, p := selectiveCase(r)
		want, sel := selected(cn, p, &s)
		if !sel {
			continue
		}
		answered++
		for _, poison := range []int64{math.MinInt64, math.MaxInt64} {
			dirty := make(Table, len(cn))
			for i, row := range cn {
				dirty[i] = slices.Clone(row)
				for e := 2; e <= p.Tau; e++ {
					dirty[i][e+1] = poison
					poisoned++
				}
			}
			if got, again := selected(dirty, p, &s); !again || !sameResult(got, want) {
				t.Fatalf("case %d (tau=%d widths=%v budget=%d weight=%v), cells past e = 1 set to %d: selected %v\n table %v\n dirty %+v\n clean %+v",
					n, p.Tau, p.Widths, p.EnumBudget, p.SigWeight, poison, again, cn, got, want)
			}
		}
	}
	if answered < cases/4 || poisoned < cases {
		t.Fatalf("%d cases answered by the selection, %d cells poisoned; want more of each", answered, poisoned)
	}
}
