package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gph/internal/alloc"
	"gph/internal/bitvec"
	"gph/internal/cpu"
	"gph/internal/dataset"
	"gph/internal/engine"
	"gph/internal/verify"
)

// freeVerdict reports whether allocate answers "scan" at tau from the
// index's shape alone, before binding a query — its early exit, restated.
func freeVerdict(ix *Index, tau int) bool {
	p := ix.pricesThrough(tau)
	return p.start+ix.roundPrice(tau)+p.floor[tau] > ix.ScanCost(tau)
}

// freeFrom returns the smallest tau whose verdict is free, dims for none.
func freeFrom(ix *Index) int {
	for tau := 0; tau < ix.dims; tau++ {
		if freeVerdict(ix, tau) {
			return tau
		}
	}
	return ix.dims
}

// withinOf returns the ids of data within tau of q, given q's distance to
// every row.
func withinOf(dist []int, tau int) []int32 {
	var ids []int32
	for id, d := range dist {
		if d <= tau {
			ids = append(ids, int32(id))
		}
	}
	return ids
}

// TestFreeVerdictIsTheLoops holds allocate's early exit to the loop it
// skips, on the five datagen corpora at three sizes, every τ below dims
// (256) and every way of opening an index: wherever the verdict is free the
// loop, entered anyway, says "scan" in its first round; whatever vector a
// loop last proposed, and the eager DP's priced on the true table, costs
// at least floor[τ]; the floor does not fall as τ grows; and Search
// returns the oracle's answer on either side of it. The early exit is
// what keeps a free verdict's counters at zero: a query answered by it
// reports no round, probe or CN scan — on a scratch whose last query ran
// two rounds — and deleting the exit, or a floor of 0, fails here.
func TestFreeVerdictIsTheLoops(t *testing.T) {
	sizes := []int{300, 4000, 20000}
	if raceEnabled || testing.Short() {
		sizes = sizes[:2] // the lib shapes' n is TestLibShapesPinTheirRoute's under -race
	}
	for _, gen := range []func(n int, seed int64) *dataset.Dataset{
		dataset.SIFTLike, dataset.GISTLike, dataset.PubChemLike, dataset.FastTextLike, dataset.UQVideoLike,
	} {
		for _, n := range sizes {
			ds := gen(n, 11)
			built := buildSmall(t, ds.Vectors, Options{Seed: 5})
			queries := append(dataset.PerturbQueries(ds, 2, 6, 21), ds.Vectors[n/3])
			dists := make([][]int, len(queries))
			for qi, q := range queries {
				dists[qi] = make([]int, n)
				for id, v := range ds.Vectors {
					dists[qi][id] = q.Hamming(v)
				}
			}
			for mode, ix := range openModes(t, built) {
				free, bound, wasFree := 0, 0, false
				// Every τ through 256; PubChem-like's 881 dimensions in steps of 9
				// and 17 past that (its DP is 36 rows of τ + 2 cells a round).
				for tau := 0; tau < ix.dims; tau += 1 + tau/256*8 {
					p := ix.pricesThrough(tau)
					if tau > 0 && p.floor[tau] < p.floor[tau-1] {
						t.Fatalf("%s n=%d %s: floor falls from %d at tau=%d to %d", ds.Name, n, mode, p.floor[tau-1], tau-1, p.floor[tau])
					}
					scan, isFree := ix.ScanCost(tau), freeVerdict(ix, tau)
					// Results are compared where the verdict changes hands and at
					// every seventh τ between: Search is allocate's caller.
					check := tau%7 == 0 || isFree != wasFree
					wasFree = isFree
					for qi, q := range queries {
						got := lazyAllocate(ix, q, tau)
						if isFree && (got.price <= scan || got.rounds > 1) {
							t.Fatalf("%s n=%d %s tau=%d query %d: the verdict is free (floor %d) but the loop ran %d rounds to a price of %d against a scan of %d",
								ds.Name, n, mode, tau, qi, p.floor[tau], got.rounds, got.price, scan)
						}
						if got.Thresholds != nil && !got.Fallback {
							s := ix.getScratch()
							ix.bindQuery(q, s)
							last := s.planPrice(got.Thresholds, got.SumCN)
							ix.putScratch(s)
							if last < p.floor[tau] {
								t.Fatalf("%s n=%d %s tau=%d query %d: the loop proposed %v at %d, below the floor %d", ds.Name, n, mode, tau, qi, got.Thresholds, last, p.floor[tau])
							}
						}
						if !check {
							continue
						}
						// (The eager DP is O(m·τ²): past τ = 64 only where a loop runs.)
						if tau > 64 && isFree {
						} else if want, price := eagerAllocate(ix, q, tau); !want.Fallback && price < p.floor[tau] {
							t.Fatalf("%s n=%d %s tau=%d query %d: the eager DP's %v costs %d, below the floor %d", ds.Name, n, mode, tau, qi, want.Thresholds, price, p.floor[tau])
						}
						ids, st, err := ix.SearchStats(q, tau)
						if err != nil {
							t.Fatal(err)
						}
						if want := withinOf(dists[qi], tau); !slices.Equal(ids, want) {
							t.Fatalf("%s n=%d %s tau=%d query %d: %d results, the oracle has %d (%+v)", ds.Name, n, mode, tau, qi, len(ids), len(want), *st)
						}
						if isFree {
							free++
							if !st.Scanned || st.AllocRounds != 0 || st.CNProbes != 0 || st.CNScans != 0 || st.CNKeys != 0 {
								t.Fatalf("%s n=%d %s tau=%d query %d: a free verdict reports work: %+v", ds.Name, n, mode, tau, qi, *st)
							}
						} else if st.AllocRounds == 0 {
							t.Fatalf("%s n=%d %s tau=%d query %d: the floor leaves the verdict to the loop, which ran no round: %+v", ds.Name, n, mode, tau, qi, *st)
						} else {
							bound++
						}
					}
				}
				// Every corpus is scanned unbound at large τ, and from 4 000 rows
				// binds queries at small τ (at 300 only where the scan is priced
				// by the portable loops: a kernel scan costs less than a DP round).
				if free == 0 || (bound == 0 && n >= 4000) {
					t.Fatalf("%s n=%d %s: %d free verdicts and %d bound queries checked against the oracle", ds.Name, n, mode, free, bound)
				}
			}
		}
	}
}

// TestFreeVerdictLeavesCountersAtZero: the counters a query reports are
// its own. bindQuery used to be what zeroed a pooled scratch's rounds and
// probes, and a free verdict binds nothing.
func TestFreeVerdictLeavesCountersAtZero(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratches at random")
	}
	ds := dataset.UQVideoLike(20000, 11)
	ix := buildSmall(t, ds.Vectors, Options{Seed: 5})
	tau := freeFrom(ix)
	var busy bitvec.Vector
	for _, q := range dataset.PerturbQueries(ds, 200, 8, 5) {
		for at := 4; at < tau; at++ {
			if _, st, err := ix.SearchStats(q, at); err != nil {
				t.Fatal(err)
			} else if st.AllocRounds >= 2 && st.CNProbes > 0 {
				busy, tau = q, max(at, tau)
				// The same scratch, straight from the pool:
				_, st, err := ix.SearchStats(q, tau)
				if err != nil {
					t.Fatal(err)
				}
				if !st.Scanned || st.AllocRounds != 0 || st.CNProbes != 0 || st.CNScans != 0 || st.CNKeys != 0 {
					t.Fatalf("tau=%d after a two-round query: %+v", tau, *st)
				}
				return
			}
		}
	}
	t.Fatalf("no query below tau=%d ran two rounds (%v)", tau, busy)
}

// TestPlanFloorIsTheCheapestVector: floor[τ] is the minimum it is said to
// be — against every valid vector enumerated outright on small budgets,
// and against 1 000 random valid vectors priced by the guard's own rule
// on random CN tables (non-decreasing rows, the collection at the width).
func TestPlanFloorIsTheCheapestVector(t *testing.T) {
	sift, uqvideo := dataset.SIFTLike(20000, 12), dataset.UQVideoLike(20000, 11)
	rng := rand.New(rand.NewSource(9))
	for _, ds := range []*dataset.Dataset{sift, uqvideo, dataset.SIFTLike(300, 12)} {
		ix := buildSmall(t, ds.Vectors, Options{Seed: 5})
		s := ix.getScratch()
		ix.bindQuery(ds.Vectors[0], s)
		m, n := len(s.widths), int64(ix.count)
		price := func(i, e int) int64 {
			if e < 0 {
				return 0
			}
			steps, _ := s.genPrice(i, e)
			if e >= s.widths[i] {
				steps += engine.CandidatePrice * n
			}
			return steps
		}
		var cheapest func(i, units int) int64 // over Tᵢ… with Σ(T + 1) = units
		cheapest = func(i, units int) int64 {
			if i == m-1 {
				return price(i, units-1)
			}
			best := cheapest(i+1, units)
			for e := 0; e < units; e++ {
				best = min(best, price(i, e)+cheapest(i+1, units-e-1))
			}
			return best
		}
		for tau := 0; tau < ix.dims && (m <= 4 || tau <= 7); tau += 1 + tau/8 {
			if got, want := ix.pricesThrough(tau).floor[tau], cheapest(0, tau+1); got != want {
				t.Fatalf("%s n=%d tau=%d: floor %d, the cheapest of all vectors %d", ds.Name, ix.count, tau, got, want)
			}
		}
		for range 1000 {
			tau := rng.Intn(ix.dims)
			T := slices.Repeat([]int{-1}, m)
			for range tau + 1 {
				T[rng.Intn(m)]++
			}
			var sumCN int64
			for i, e := range T {
				if e >= s.widths[i] {
					sumCN += n
				} else if e >= 0 {
					sumCN += rng.Int63n(n + 1)
				}
			}
			if got, floor := s.planPrice(T, sumCN), ix.pricesThrough(tau).floor[tau]; got < floor {
				t.Fatalf("%s n=%d tau=%d: %v collecting %d costs %d, below the floor %d", ds.Name, ix.count, tau, T, sumCN, got, floor)
			}
		}
		ix.putScratch(s)
	}
}

// TestLibShapesPinTheirRoute says out loud where the benchmark's two
// shapes stand (n = 20 000): lib_selective's queries (uqvideo-like, τ = 8)
// run the index, lib_wide's (sift-like, τ = 16) are scanned — by the free
// verdict where the scan is priced by the kernels, in the loop's first
// round where it is priced by the portable loops. Both hold under the
// host's arm and under the portable arm forced (cpu.Force). The log
// names the arm and the τ each shape's verdict is free from (CI prints
// it beside the scan kernel's), and each partition's width and layout:
// lib_wide keeps one partition, of 13 bits, in the bitmap layout, and
// lib_selective none.
func TestLibShapesPinTheirRoute(t *testing.T) {
	for _, c := range []struct {
		name       string
		ds         *dataset.Dataset
		tau        int
		wantIndex  bool
		wantBitmap []int // the widths of the partitions kept as bitmaps
	}{
		{"lib_selective", dataset.UQVideoLike(20000, 1), 8, true, nil},
		{"lib_wide", dataset.SIFTLike(20000, 1), 16, false, []int{13}},
	} {
		ix, err := Build(c.ds.Vectors, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var layouts []string
		var bitmaps []int
		for i, w := range ix.parts.Widths() {
			layout := "hash"
			if ix.inv[i].Bitmap() {
				layout, bitmaps = "bitmap", append(bitmaps, w)
			}
			layouts = append(layouts, fmt.Sprintf("%d bits %s", w, layout))
		}
		t.Logf("%s: partitions %s", c.name, strings.Join(layouts, ", "))
		if !slices.Equal(bitmaps, c.wantBitmap) {
			t.Fatalf("%s: bitmap partitions of %v bits, want %v", c.name, bitmaps, c.wantBitmap)
		}
		for _, forced := range []cpu.Kernel{cpu.KernelAssembly, cpu.KernelPortable} {
			restore := cpu.Force(cpu.Setting{Kernel: forced})
			from, arm := freeFrom(ix), "kernel"
			if ix.ScanCost(c.tau) == int64(ix.count*(2+(ix.dims+63)/64)/3) {
				arm = "portable"
				if forced != cpu.KernelPortable {
					arm += " (the kernel price NOT exercised)"
				}
			}
			t.Logf("%s: price arm %s: a scan costs %d steps at tau=%d and %d at tau=%d; the verdict is free from tau=%d",
				c.name, arm, ix.ScanCost(c.tau), c.tau, ix.ScanCost(ix.dims-1), ix.dims-1, from)
			wantFree := !c.wantIndex && arm == "kernel"
			if (c.tau >= from) != wantFree {
				restore()
				t.Fatalf("%s, %s arm: tau=%d against a verdict free from %d", c.name, arm, c.tau, from)
			}
			for qi, q := range dataset.PerturbQueries(c.ds, 100, 4, 7) {
				_, st, err := ix.SearchStats(q, c.tau)
				if err == nil && (st.Scanned == c.wantIndex || (st.AllocRounds == 0) != wantFree) {
					err = fmt.Errorf("%+v", *st)
				}
				if err != nil {
					restore()
					t.Fatalf("%s, %s arm, query %d: %v", c.name, arm, qi, err)
				}
			}
			restore()
		}
	}
}

// TestSelectiveRoundOnesAreSelections pins the selection — a round with
// τ < m answered from the e = 0 cells, without greedy's sweeps — to
// lib_selective's shape (uqvideo-like, n = 20 000, τ = 8 < m = 10), over
// 400 perturbed queries. Each query is allocated as the query path does it,
// on a scratch whose table rows were emptied after binding: at least 99 %
// must be answered from the row starts, settled at once, with no row fitted
// into the table. The same binding's table is then built (startTable), and
// the answer has to be the Result alloc gives on it. Those round-one tables
// are also allocated with every CN cell past e = 1 overwritten, low and
// high: the selection reads nothing past e = 1, so a table it answers gives
// the clean Result both times; at least 99 % must. Greedy reads no further
// on most of these tables either, so each table is also held to the
// selection's condition, restated here on the cost cells (CN + the default
// signature weight times the ball): the second increment of every row above
// B, the sum of the τ + 1 cheapest first ones. At least 99 % must meet it
// too; alloc's TestSelectionIsTheRecurrence holds the round to answering
// exactly those by selection. The log gives the three shares (CI prints
// them).
func TestSelectiveRoundOnesAreSelections(t *testing.T) {
	const tau, queries = 8, 400
	ds := dataset.UQVideoLike(20000, 1)
	ix, err := Build(ds.Vectors, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m := ix.parts.NumParts(); tau >= m {
		t.Fatalf("m = %d: tau = %d is no selective round", m, tau)
	}
	params := alloc.Params{Tau: tau, Widths: ix.parts.Widths(), EnumBudget: ix.opts.EnumBudget}
	var dp alloc.Scratch
	fromStarts, same, meet := 0, 0, 0
	first, second := make([]int64, len(params.Widths)), make([]int64, len(params.Widths))
	for qi, q := range dataset.PerturbQueries(ds, queries, 4, 7) {
		s := ix.getScratch()
		ix.bindQuery(q, s)
		for i := range s.table {
			s.table[i] = s.table[i][:0]
		}
		res, price := ix.allocateLoop(q, tau, ix.ScanCost(tau), s)
		if price > ix.ScanCost(tau) {
			t.Fatalf("query %d: scanned at %d", qi, price)
		}
		if s.rounds == 1 && !slices.ContainsFunc(s.table, func(row []int64) bool { return len(row) > 0 }) {
			fromStarts++
		}
		got := res
		got.Thresholds = slices.Clone(res.Thresholds)
		ix.startTable(tau, s)
		for i, row := range s.table {
			ball, _ := dp.BallSize(params.Widths[i], 1)
			first[i], second[i] = row[1]+alloc.DefaultSigWeight, math.MaxInt64
			if params.EnumBudget <= 0 || ball <= uint64(params.EnumBudget) {
				second[i] = row[2] + int64(alloc.DefaultSigWeight*float64(ball)) - first[i]
			}
		}
		var B int64
		for _, f := range slices.Sorted(slices.Values(first))[:tau+1] {
			B += f
		}
		if slices.Min(second) > B {
			meet++
		}
		want := alloc.AllocateScratch(s.table, params, &dp)
		want.Thresholds = slices.Clone(want.Thresholds)
		if got.Objective != want.Objective || got.SumCN != want.SumCN || got.Fallback != want.Fallback ||
			got.EffectiveBudget != want.EffectiveBudget || !slices.Equal(got.Thresholds, want.Thresholds) {
			t.Fatalf("query %d: allocated %+v, the round on its table %+v", qi, got, want)
		}
		held := true
		for _, poison := range []int64{math.MinInt64, math.MaxInt64} {
			dirty := make(alloc.Table, len(s.table))
			for i, row := range s.table {
				dirty[i] = slices.Clone(row)
				for e := 2; e <= tau; e++ {
					dirty[i][e+1] = poison
				}
			}
			got := alloc.AllocateScratch(dirty, params, &dp)
			held = held && got.Objective == want.Objective && got.SumCN == want.SumCN && got.Fallback == want.Fallback &&
				got.EffectiveBudget == want.EffectiveBudget && slices.Equal(got.Thresholds, want.Thresholds)
		}
		if held {
			same++
		}
		ix.putScratch(s)
	}
	t.Logf("lib_selective: %d of %d queries answered from the row starts with no table built; %d of their round-one tables meet the selection's condition; %d give the same Result with every cell past e = 1 poisoned",
		fromStarts, queries, meet, same)
	if fromStarts < queries*99/100 || meet < queries*99/100 || same < queries*99/100 {
		t.Fatalf("%d of %d queries answered from the row starts, %d tables meet the selection's condition and %d read no cell past e = 1; want at least 99 %% of each",
			fromStarts, queries, meet, same)
	}
}

// TestForcedArmPricesTheScan: under a forced scan arm, a query's
// ScanCost is that arm's ScanSteps price — on an index that priced its
// plans under the host's arm before the arm was forced too — and the
// host's price is back once the arm is restored.
func TestForcedArmPricesTheScan(t *testing.T) {
	ds := dataset.SIFTLike(3000, 4) // two-word rows: the column and the portable loops price apart
	ix := buildSmall(t, ds.Vectors, Options{Seed: 1})
	q, tau := ds.Vectors[0], 12
	price := func() int64 {
		t.Helper()
		_, st, err := ix.SearchStats(q, tau)
		if err != nil {
			t.Fatal(err)
		}
		return st.ScanCost
	}
	host := price()
	if ix.prices.Load() == nil {
		t.Fatal("the first query priced no plans")
	}
	portable := int64(ix.count * (2 + (ix.dims+63)/64) / 3)
	for _, k := range []cpu.Kernel{cpu.KernelAssembly, cpu.KernelGo, cpu.KernelPortable} {
		restore := cpu.Force(cpu.Setting{Kernel: k})
		got, want, arm := price(), ix.codes.ScanSteps(tau), verify.Arm()
		restore()
		if got != want {
			t.Fatalf("arm %v: ScanCost %d, the arm's ScanSteps %d", arm, got, want)
		}
		if (got == portable) != (arm == cpu.KernelPortable) {
			t.Fatalf("arm %v: ScanCost %d against the portable price %d", arm, got, portable)
		}
		t.Logf("forced arm %v runs as %v: ScanCost %d at tau=%d", k, arm, got, tau)
	}
	if got := price(); got != host {
		t.Fatalf("restored: ScanCost %d, the host's %d", got, host)
	}
}

// TestSearchGrowAcrossTheFloor: a kNN grows its radius on one scratch, and
// the radius at which the plan floor answers is one it may reach: the few
// nearest neighbours are found on the index below it, a k that needs a
// radius past it ends in knnByScan without binding anything more, and
// both are the linear scan's neighbours.
func TestSearchGrowAcrossTheFloor(t *testing.T) {
	ds := dataset.UQVideoLike(20000, 11)
	ix := buildSmall(t, ds.Vectors, Options{Seed: 5})
	from := freeFrom(ix)
	below, above := 0, 0
	for qi, q := range dataset.PerturbQueries(ds, 6, 6, 21) {
		for _, k := range []int{1, 3, 40, 400} {
			got, gs, err := ix.SearchGrow(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if want := linearKNN(ds.Vectors, q, k); !slices.Equal(got, want) {
				t.Fatalf("query %d k=%d: %v, the linear scan has %v (%+v)", qi, k, got, want, gs)
			}
			switch {
			case !gs.Scanned && gs.FinalTau < from:
				below++
			case gs.Scanned && gs.Radii > 1:
				above++
			}
		}
	}
	if below == 0 || above == 0 {
		t.Fatalf("the verdict is free from tau=%d: %d kNNs ended on the index below it, %d grew past the guard and were scanned", from, below, above)
	}
}
