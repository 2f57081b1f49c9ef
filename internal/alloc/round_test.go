package alloc

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// flatFrom returns the row a lazily refined query hands the round: exact
// through the cells given, and the last of them — a lower bound — from
// there through τ.
func flatFrom(tau int, exact ...int64) []int64 {
	row := make([]int64, tau+2)
	copy(row[1:], exact)
	for e := len(exact) + 1; e < len(row); e++ {
		row[e] = row[e-1]
	}
	return row
}

// flatRows is a first round's table: row i exact at e = 0 (at0[i]) only.
func flatRows(tau int, at0 ...int64) Table {
	t := make(Table, len(at0))
	for i, cn := range at0 {
		t[i] = flatFrom(tau, cn)
	}
	return t
}

// roundCases are the shapes BenchmarkAllocateRound times: one query's
// allocation each, the tables of its rounds in order, taken from indexes
// built over datagen's corpora at n = 20 000 (Options{Seed: 1}, the first
// perturbed query) — partition widths and the enumeration budget as built,
// CN rows as the query path had them when it called AllocateScratch — and
// one line of many queries' first rounds.
var roundCases = func() []roundCase {
	uqvideo := []int{28, 28, 27, 22, 28, 27, 27, 20, 22, 27}
	sift := []int{36, 34, 13, 45}
	return []roundCase{
		// Round one of a selective query, τ = 8: every row exact at e = 0,
		// flat past it.
		{"selective-round-one", Params{Tau: 8, Widths: uqvideo, EnumBudget: 1 << 18}, true,
			[]Table{flatRows(8, 1, 14, 1, 1, 0, 1, 14, 1, 1, 0)}},
		// Round one of 400 selective queries in turn, so no branch predictor
		// learns one table: generated (selectiveRoundOnes), not taken.
		{"selective-cycled", Params{Tau: 8, Widths: uqvideo, EnumBudget: 1 << 18}, true,
			selectiveRoundOnes(rand.New(rand.NewSource(47)), 400, len(uqvideo), 8)},
		// The same query's fully estimated table (core.EstimateTable), which
		// is what the regression benchmark's alloc.dp_us hands the round.
		{"selective-full-table", Params{Tau: 8, Widths: uqvideo, EnumBudget: 1 << 18}, true, []Table{{
			{0, 1, 1, 18, 34, 43, 57, 76, 128, 325},
			{0, 14, 28, 37, 44, 45, 45, 49, 114, 331},
			{0, 1, 1, 4, 20, 35, 65, 181, 497, 1177},
			{0, 1, 20, 38, 78, 177, 364, 784, 1724, 3347},
			{0, 0, 1, 10, 30, 40, 52, 99, 220, 569},
			{0, 1, 1, 3, 15, 29, 41, 81, 186, 482},
			{0, 14, 27, 39, 44, 51, 93, 177, 370, 811},
			{0, 1, 21, 45, 108, 272, 707, 1512, 3037, 5540},
			{0, 1, 20, 37, 44, 84, 284, 766, 1849, 3786},
			{0, 0, 2, 15, 33, 43, 49, 93, 203, 468},
		}}},
		// The same query at τ = 16: round one picks e = 1 on seven rows, those
		// cells are made exact, round two settles.
		{"uqvideo-tau16-two-rounds", Params{Tau: 16, Widths: uqvideo, EnumBudget: 1 << 18}, true, []Table{
			flatRows(16, 1, 14, 1, 1, 0, 1, 14, 1, 1, 0),
			{
				flatFrom(16, 1), flatFrom(16, 14), flatFrom(16, 1), flatFrom(16, 1, 20), flatFrom(16, 0),
				flatFrom(16, 1), flatFrom(16, 14, 27), flatFrom(16, 1, 21), flatFrom(16, 1, 20), flatFrom(16, 0, 2),
			},
		}},
		// A sift-like query at τ = 16, its second round: the 13-bit partition
		// has been histogrammed, its counts level off inside the cut, and the
		// recurrence runs.
		{"sift-tau16-recurrence", Params{Tau: 16, Widths: sift, EnumBudget: 1 << 18}, false, []Table{{
			flatFrom(16, 0, 0, 1), flatFrom(16, 0, 1),
			{0, 5, 40, 276, 1104, 3074, 6374, 10704, 14750, 17714, 19281, 19834, 19973, 19999, 20000, 20000, 20000, 20000},
			flatFrom(16, 0, 1),
		}}},
	}
}()

// selectiveRoundOnes draws count round-one tables of m rows at τ = tau,
// each row exact at e = 0 and flat past it, whose CN(qᵢ, 0) follow those of
// 400 perturbed uqvideo-like queries at n = 20 000: 28 % of rows 0, 37 % 1,
// 9 % 2, 3 % 3–9 and the rest 10–25.
func selectiveRoundOnes(r *rand.Rand, count, m, tau int) []Table {
	tables := make([]Table, count)
	at0 := make([]int64, m)
	for k := range tables {
		for i := range at0 {
			switch u := r.Intn(100); {
			case u < 28:
				at0[i] = 0
			case u < 65:
				at0[i] = 1
			case u < 74:
				at0[i] = 2
			case u < 77:
				at0[i] = int64(3 + r.Intn(7))
			default:
				at0[i] = int64(10 + r.Intn(16))
			}
		}
		tables[k] = flatRows(tau, at0...)
	}
	return tables
}

type roundCase struct {
	name   string
	p      Params
	exit   bool // every round leaves through the convex exit
	rounds []Table
}

// BenchmarkAllocateRound times AllocateScratch on the tables a query hands
// it, ns a round, with no index behind them. It is the number DESIGN.md §1
// cites for the round.
func BenchmarkAllocateRound(b *testing.B) {
	for _, c := range roundCases {
		b.Run(c.name, func(b *testing.B) {
			var s, ref Scratch
			for _, table := range c.rounds {
				if err := table.Validate(c.p.Tau); err != nil {
					b.Fatal(err)
				}
				if _, exit := eagerAllocate(table, c.p, &ref, true); exit != c.exit {
					b.Fatalf("convex exit %v, want %v", exit, c.exit)
				}
			}
			b.ResetTimer()
			for range b.N {
				for _, table := range c.rounds {
					AllocateScratch(table, c.p, &s)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.rounds)), "ns/round")
		})
	}
}

// TestRoundReadsNoCellPastTheCut: the round makes a cost cell when it takes
// it, and takes none beyond the first one above the incumbent. Each row's
// cut comes from the eager reference; every CN cell two or more past it is
// then overwritten — with a value below every real one and with one above,
// either of which would turn greedy, the cut or the convexity check if
// read — and the Result has to be the one the clean table gave. The cases
// (tiedCase) cover convex rows and rows the recurrence decides, budgets
// that bite and budgets that escalate; and a Scratch that has only ever
// left through the exit has never sized a cost grid.
func TestRoundReadsNoCellPastTheCut(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	var ref Scratch
	const cases = 20000
	exits, recurrences, escalations, poisoned := 0, 0, 0, 0
	for n := 0; n < cases; n++ {
		cn, p := tiedCase(r)
		want, exit := eagerAllocate(cn, p, &ref, true)
		if want.Fallback {
			continue
		}
		cuts := slices.Clone(ref.maxE)
		for _, poison := range []int64{math.MinInt64, math.MaxInt64} {
			dirty := make(Table, len(cn))
			for i, row := range cn {
				dirty[i] = slices.Clone(row)
				for e := cuts[i] + 2; e <= p.Tau; e++ {
					dirty[i][e+1] = poison
					poisoned++
				}
			}
			var s Scratch
			if got := AllocateScratch(dirty, p, &s); !sameResult(got, want) {
				t.Fatalf("case %d (tau=%d widths=%v budget=%d weight=%v, exit=%v), cells past cuts %v set to %d:\n table %v\n dirty %+v\n clean %+v",
					n, p.Tau, p.Widths, p.EnumBudget, p.SigWeight, exit, cuts, poison, cn, got, want)
			}
			if grid := len(s.cost.flat) > 0; grid == exit {
				t.Fatalf("case %d (tau=%d widths=%v budget=%d weight=%v): convex rows %v, cost grid sized %v",
					n, p.Tau, p.Widths, p.EnumBudget, p.SigWeight, exit, grid)
			}
		}
		if exit {
			exits++
		} else {
			recurrences++
		}
		if want.EffectiveBudget > p.EnumBudget {
			escalations++
		}
	}
	if exits < cases/4 || recurrences < cases/20 || escalations < cases/100 || poisoned < cases {
		t.Fatalf("%d cases left through the exit, %d ran the recurrence, %d escalated, %d cells were poisoned; want more of each",
			exits, recurrences, escalations, poisoned)
	}
}

// fuzzCase decodes an allocation problem from bytes, a missing byte reading
// as 0: m ≤ 6, τ ≤ 12, a budget, whether the signature term is off, a width
// a row, then a byte an increment — its top bit repeats the increment
// before it, so runs of equal increments (the ties the tie-break is for)
// are one bit away from any input.
func fuzzCase(data []byte) (Table, Params) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	m, tau := 1+next()%6, next()%13
	p := Params{Tau: tau, Widths: make([]int, m), EnumBudget: []int64{0, 1, 5, 40, 1000, 1 << 18}[next()%6]}
	if next()%2 == 1 {
		p.SigWeight = -1
	}
	for i := range p.Widths {
		p.Widths[i] = 1 + next()%32
	}
	cn := make(Table, m)
	for i := range cn {
		cn[i] = make([]int64, tau+2)
		var inc int64
		for e := 1; e < tau+2; e++ {
			if b := next(); b < 0x80 || e == 1 {
				inc = int64(b & 0x7f)
			}
			cn[i][e] = cn[i][e-1] + inc
		}
	}
	return cn, p
}

// FuzzAllocate holds AllocateScratch, on a Scratch that outlives the
// inputs, to the eager reference on every input and to enumeration of every
// feasible vector where there are few enough; and where τ < m, Select on
// the Starts made from each row's cells at e = 0 and 1, on a Scratch of its
// own, to refusing or to the same Result.
func FuzzAllocate(f *testing.F) {
	const run, sigOff = 0x80, 1
	for _, seed := range [][]byte{
		// The round-one selective shape: rows exact at e = 0, flat past it.
		{5, 8, 5, 0, 27, 27, 26, 21, 27, 19,
			1, 0, run, run, run, run, run, run, run, 14, 0, run, run, run, run, run, run, run,
			0, run, run, run, run, run, run, run, run, 1, 0, run, run, run, run, run, run, run},
		{2, 12, 0, 0, 7, 7, 9},                                   // an empty table: the signature term alone, concave past half a width
		{1, 4, 1, sigOff, 11, 11},                                // two 12-bit partitions at τ = 4 need ball(12, 2) = 79: budget 1 escalates twice
		{0, 12, 1, 0, 31},                                        // ball(32, 12) fits no escalated budget: fallback
		{3, 0, 5, 0, 3, 3, 3, 3, 9, 2, 6},                        // τ = 0: one row of four gets e = 0
		{0, 9, 0, sigOff, 15, 9, 6, run, 3, 127, 2, run, run, 1}, // m = 1
		{2, 6, 0, sigOff, 9, 9, 9, 5, 1, run, 40, 2, run, run, 5, 1, run, 40, 2, run, run, 3, run, 9}, // falling increments: the recurrence
		// The selection's edges (τ < m). B = 0 + 5, the τ + 1 = 2 cheapest
		// first increments; row 0's second increment is B, so greedy takes it
		// before row 1's 5 and the selection must not answer; at B + 1 it does.
		{2, 1, 0, sigOff, 3, 3, 3, 0, 5, 5, 6, 7, 6},
		{2, 1, 0, sigOff, 3, 3, 3, 0, 6, 5, 6, 7, 6},
		{3, 1, 0, sigOff, 2, 2, 2, 2, 2, 9, 1, 9, 2, 9, 2, 9}, // first increments 2 1 2 2: rows 1 and 0 kept, the tie broken across the drop
		{3, 1, 0, sigOff, 2, 2, 2, 2, 1, 9, 1, 9, 0, 9, 5, 9}, // 1 1 0 5: rows 2 and 0 kept, row 1 lost to the tie
		// The round-one selective shape at τ = 4 < m = 6, the signature term on:
		// row 5 dropped (14, ties to the higher row), every second increment 8w.
		{5, 4, 5, 0, 26, 26, 25, 20, 26, 18,
			1, 0, run, run, run, 14, 0, run, run, run, 1, 0, run, run, run,
			0, 0, run, run, run, 1, 0, run, run, run, 14, 0, run, run, run},
		{2, 0, 1, 0, 4, 4, 4, 3, 1, 1}, // τ = 0 under budget 1: one row of three, ties to row 1
	} {
		f.Add(seed)
	}
	var s, ref, sel Scratch
	f.Fuzz(func(t *testing.T, data []byte) {
		cn, p := fuzzCase(data)
		if err := cn.Validate(p.Tau); err != nil {
			t.Fatal(err)
		}
		got := AllocateScratch(cn, p, &s)
		if want, exit := eagerAllocate(cn, p, &ref, true); !sameResult(got, want) {
			t.Fatalf("tau=%d widths=%v budget=%d weight=%v, exit=%v:\n table %v\n allocate  %+v\n reference %+v",
				p.Tau, p.Widths, p.EnumBudget, p.SigWeight, exit, cn, got, want)
		}
		if p.Tau < len(cn) {
			if res, ok := Select(starts(cn, p), p, &sel); ok && !sameResult(res, got) {
				t.Fatalf("tau=%d widths=%v budget=%d weight=%v:\n table %v\n allocate %+v\n Select   %+v",
					p.Tau, p.Widths, p.EnumBudget, p.SigWeight, cn, got, res)
			}
		}
		vectors := 1
		for range cn {
			vectors *= p.Tau + 2
		}
		if vectors > 1<<12 {
			return
		}
		if want := bruteAllocate(cn, p); !sameResult(got, want) {
			t.Fatalf("tau=%d widths=%v budget=%d weight=%v:\n table %v\n allocate    %+v\n enumeration %+v",
				p.Tau, p.Widths, p.EnumBudget, p.SigWeight, cn, got, want)
		}
	})
}
