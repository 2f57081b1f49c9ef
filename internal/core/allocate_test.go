package core

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"gph/internal/alloc"
	"gph/internal/binio"
	"gph/internal/bitvec"
	"gph/internal/dataset"
	"gph/internal/engine"
	"gph/internal/engine/enginetest"
	"gph/internal/mmapio"
)

// lazyAllocation is what one call of the query path's allocation left
// behind, read before the scratch went back to the pool.
type lazyAllocation struct {
	alloc.Result       // Thresholds copied out of the scratch
	price        int64 // allocate's verdict; above ix.ScanCost(tau) means scan
	rounds       int
	scans        int
	// settled says every cell of Thresholds was exact when allocate
	// returned: false on a query the guard stopped mid-refinement.
	settled bool
	// bill is what allocation had charged itself when it returned a
	// verdict to scan: the price less the plan's share of it.
	bill int64
}

// lazyAllocate runs the query path's allocation loop, entered whatever
// the plan floor says of τ (TestFreeVerdictIsTheLoops holds allocate's
// early exit to it).
func lazyAllocate(ix *Index, q bitvec.Vector, tau int) lazyAllocation {
	s := ix.getScratch()
	res, price := ix.allocateLoop(q, tau, ix.ScanCost(tau), s)
	got := lazyAllocation{Result: res, price: price, rounds: s.rounds, scans: s.scans, settled: res.Thresholds != nil}
	for i, e := range res.Thresholds {
		got.settled = got.settled && ix.cnExact(i, e, s)
	}
	if price > ix.ScanCost(tau) && !res.Fallback {
		got.bill = price - s.planPrice(res.Thresholds, res.SumCN)
	}
	got.Thresholds = slices.Clone(res.Thresholds)
	ix.putScratch(s)
	return got
}

// planPrice prices running the threshold vector T the way DESIGN.md §1
// states it, apart from allocate's own pass: generation per partition
// plus engine.CandidatePrice for each of the sumCN postings T is estimated to
// collect.
func (s *searchScratch) planPrice(T []int, sumCN int64) int64 {
	price := engine.CandidatePrice * sumCN
	for i, e := range T {
		if e >= 0 {
			steps, _ := s.genPrice(i, e)
			price += steps
		}
	}
	return price
}

// eagerAllocate is the reference: the DP over the fully estimated
// table, and the price of its vector on that table.
func eagerAllocate(ix *Index, q bitvec.Vector, tau int) (alloc.Result, int64) {
	params := alloc.Params{Tau: tau, Widths: ix.parts.Widths(), EnumBudget: ix.opts.EnumBudget}
	want := alloc.Allocate(ix.EstimateTable(q, tau), params)
	s := ix.getScratch()
	ix.bindQuery(q, s)
	price := s.planPrice(want.Thresholds, want.SumCN)
	ix.putScratch(s)
	return want, price
}

// openModes returns ix as built, as loaded from its saved bytes into
// the heap, and as opened in borrow mode over a file mapping (content
// validation deferred to the first query, as gph-server -mmap does).
func openModes(t *testing.T, ix *Index) map[string]*Index {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.gph")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := mmapio.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	mapped, err := Load(binio.NewSource(m.Data()))
	if err != nil {
		t.Fatal(err)
	}
	if err := mapped.ensureValidated(); err != nil {
		t.Fatal(err)
	}
	return map[string]*Index{"built": ix, "loaded": loaded, "mapped": mapped}
}

// TestLazyAllocateMatchesEager is the exactness property of the lazy
// allocation: whenever the loop settles, it settles on the very result
// the DP returns on the fully estimated table (EstimateTable, every cell
// of every row), reached by refining only the cells it picks —
// thresholds, objective, SumCN, budget and fallback — for skewed and
// unskewed corpora, stored and perturbed queries, every way of opening
// an index, and every τ from 0 until the scan guard has taken over.
func TestLazyAllocateMatchesEager(t *testing.T) {
	corpora := map[string]*dataset.Dataset{
		"uqvideo": dataset.UQVideoLike(20000, 11),
		"sift":    dataset.SIFTLike(20000, 12),
	}
	for name, ds := range corpora {
		built := buildSmall(t, ds.Vectors, Options{Seed: 5})
		queries := append([]bitvec.Vector{ds.Vectors[0], ds.Vectors[17], ds.Vectors[600]},
			dataset.PerturbQueries(ds, 5, 6, 21)...)
		for mode, ix := range openModes(t, built) {
			guarded, lazyRows := 0, 0
			for tau := 0; tau < ix.dims && guarded < 3*len(queries); tau++ {
				for qi, q := range queries {
					got := lazyAllocate(ix, q, tau)
					if got.rounds < 1 || got.scans > len(ix.inv) {
						t.Fatalf("%s/%s tau=%d query %d: %d rounds, %d scans over %d partitions", name, mode, tau, qi, got.rounds, got.scans, len(ix.inv))
					}
					if got.scans < len(ix.inv) {
						lazyRows++
					}
					if got.price > ix.ScanCost(tau) {
						guarded++
					}
					if !got.settled {
						if got.price <= ix.ScanCost(tau) {
							t.Fatalf("%s/%s tau=%d query %d: an unsettled plan %+v was let through", name, mode, tau, qi, got)
						}
						continue
					}
					want, _ := eagerAllocate(ix, q, tau)
					if got.Objective != want.Objective || got.SumCN != want.SumCN ||
						got.Fallback != want.Fallback || got.EffectiveBudget != want.EffectiveBudget ||
						!slices.Equal(got.Thresholds, want.Thresholds) {
						t.Fatalf("%s/%s tau=%d query %d: lazy %+v, eager %+v", name, mode, tau, qi, got, want)
					}
					if !got.Fallback {
						if err := alloc.CheckVector(got.Thresholds, tau); err != nil {
							t.Fatalf("%s/%s tau=%d query %d: %v", name, mode, tau, qi, err)
						}
					}
				}
			}
			if guarded < 3*len(queries) {
				t.Fatalf("%s/%s: the scan guard took over for %d allocations; the sweep should end past the crossover", name, mode, guarded)
			}
			if lazyRows == 0 {
				t.Fatalf("%s/%s: every allocation scanned every partition; the lazy path was not exercised", name, mode)
			}
		}
	}
}

// TestEarlyScanAgreesWithSettledPlan holds the scan guard's place inside
// the loop to what it replaced, a guard consulted once the loop had
// settled. The DP ranks vectors by its own objective, not by plan price,
// so that a round's optimistic price bounds the settled plan's from
// below is measured here, not proved: whenever the guard stops a loop
// that has not settled, the vector it would have settled on (the eager
// DP's), priced on the true table, plus the bill at the stop — a floor
// on what settling would have cost — still exceeds the scan's price; and
// whenever the query is not scanned, its thresholds are the eager DP's.
func TestEarlyScanAgreesWithSettledPlan(t *testing.T) {
	for _, c := range []struct {
		name string
		ds   *dataset.Dataset
		taus []int
	}{
		{"sift", dataset.SIFTLike(20000, 12), []int{2, 4, 6, 8, 10, 11, 12, 13, 14, 15, 16, 18, 20, 24, 32, 48}},
		{"uqvideo", dataset.UQVideoLike(20000, 11), []int{2, 4, 8, 12, 16, 18, 20, 22, 24, 26, 28, 30, 32, 36, 40, 48}},
	} {
		ix := buildSmall(t, c.ds.Vectors, Options{Seed: 5})
		queries := append(dataset.PerturbQueries(c.ds, 20, 4, 31), dataset.PerturbQueries(c.ds, 20, 12, 32)...)
		index, early, atSettlement := 0, 0, 0
		for _, tau := range c.taus {
			for qi, q := range queries {
				got := lazyAllocate(ix, q, tau)
				want, eagerPrice := eagerAllocate(ix, q, tau)
				switch {
				case got.price <= ix.ScanCost(tau):
					index++
					if !slices.Equal(got.Thresholds, want.Thresholds) {
						t.Fatalf("%s tau=%d query %d: ran %v, the eager DP allocates %v", c.name, tau, qi, got.Thresholds, want.Thresholds)
					}
				case got.settled:
					atSettlement++
				default:
					early++
					if floor := got.bill + eagerPrice; floor <= ix.ScanCost(tau) {
						t.Errorf("%s tau=%d query %d: scanned in round %d at %d against a scan of %d, but settling on %v would have cost %d + %d = %d",
							c.name, tau, qi, got.rounds, got.price, ix.ScanCost(tau), want.Thresholds, got.bill, eagerPrice, floor)
					}
				}
			}
		}
		t.Logf("%s: %d queries ran the index on the eager thresholds, %d were scanned before settling and %d on settling", c.name, index, early, atSettlement)
		if index == 0 || early == 0 {
			t.Fatalf("%s: the sweep should cross the guard: %d index, %d early scans", c.name, index, early)
		}
	}
}

// TestQueryWorkIsBounded: the guard's promise, read off the counters a
// query reports. Whatever τ asks for, the work the price list covers —
// binding the query, the probes and histogram passes that started and
// refined its CN rows, DP rounds, and then either the plan (signatures
// probed, keys scanned, postings decoded and verified) or the scan —
// comes to at most twice the scan's price at that τ; a query the plan
// floor answers is not bound and pays the scan alone.
func TestQueryWorkIsBounded(t *testing.T) {
	wideDS, wideIx := wideCorpus()
	dupDS, dupIx := dupKeyCorpus()
	uqvideo, sift := dataset.UQVideoLike(20000, 11), dataset.SIFTLike(20000, 12)
	for _, c := range []struct {
		name string
		ds   *dataset.Dataset
		ix   *Index
	}{
		{"uqvideo", uqvideo, buildSmall(t, uqvideo.Vectors, Options{Seed: 5})},
		{"sift", sift, buildSmall(t, sift.Vectors, Options{Seed: 5})},
		{"pubchem", wideDS, wideIx},
		{"dupkeys", dupDS, dupIx},
	} {
		ix := c.ix
		m, dearest, free, index := int64(ix.parts.NumParts()), 0.0, 0, 0
		for _, q := range append(dataset.PerturbQueries(c.ds, 3, 6, 21), c.ds.Vectors[17]) {
			for tau := 0; tau < ix.dims; tau++ {
				_, st, err := ix.SearchStats(q, tau)
				if err != nil {
					t.Fatal(err)
				}
				if st.ScanCost != ix.ScanCost(tau) {
					t.Fatalf("%s tau=%d: Stats.ScanCost %d, the scan's price at this tau %d", c.name, tau, st.ScanCost, ix.ScanCost(tau))
				}
				work := dpCellPrice*m*int64(tau+2)*int64(st.AllocRounds) + engine.ProbePrice*int64(st.CNProbes) + int64(st.CNKeys)
				if st.AllocRounds > 0 {
					work += int64(ix.dims) // the query was bound
				} else {
					free++
				}
				if st.Scanned {
					work += st.ScanCost
				} else {
					index++
					work += engine.ProbePrice*int64(st.Signatures) + int64(st.KeysScanned) + engine.CandidatePrice*st.SumPostings
				}
				if work > 2*st.ScanCost {
					t.Fatalf("%s tau=%d: priced work %d against a scan of %d: %+v", c.name, tau, work, st.ScanCost, *st)
				}
				dearest = max(dearest, float64(work)/float64(st.ScanCost))
			}
		}
		t.Logf("%s: the dearest query cost %.2f scans; %d ran the index, %d were not bound", c.name, dearest, index, free)
		// (dupkeys' dense scan is dear enough to leave every τ to the loop.)
		if index == 0 || (free == 0) != (c.name == "dupkeys") {
			t.Fatalf("%s: the sweep should cross the plan floor: %d queries ran the index, %d were not bound", c.name, index, free)
		}
	}
}

// TestSearchSteadyStateAllocs pins the query path's allocations: after
// warm-up a Search allocates its result slice and nothing else — no
// stats, no threshold vector, no per-round closure, no width slice, and
// on the scan route no id buffer of its own.
func TestSearchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratches at random")
	}
	ds := dataset.UQVideoLike(20000, 11)
	ix := buildSmall(t, ds.Vectors, Options{Seed: 5})
	for _, tau := range []int{4, 8, 40} {
		q := ds.Vectors[3]
		_, st, err := ix.SearchStats(q, tau)
		if err != nil {
			t.Fatal(err)
		}
		if st.Scanned != (tau == 40) {
			t.Fatalf("tau=%d: the sweep should run the index twice, then scan: %+v", tau, *st)
		}
		if !st.Scanned {
			enginetest.ScratchReturned(t, ix, q, tau)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := ix.Search(q, tau); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Fatalf("tau=%d: %v allocations per Search, want at most 2", tau, allocs)
		}
	}
}

// TestSearchGrowKeepsRows: CN rows do not depend on τ, so a kNN that
// grows through several radii estimates each partition in full at most
// once for the whole call, and a row histogrammed at one radius serves
// every radius after it — those narrower than the partition included,
// where the row as fitted is shorter than what is known of it. On
// dupKeyCorpus the histogram passes come at radius 4 over 64-bit
// partitions with radii 8 and 16 still to go; on wideCorpus, at the last
// radius and over the one narrow partition. The call's allocations are
// replayed on one scratch, the way SearchGrow holds it, to see them
// radius by radius: they settle on the eager DP's thresholds, and never
// histogram a partition twice.
func TestSearchGrowKeepsRows(t *testing.T) {
	for _, c := range []struct {
		name   string
		corpus func() (*dataset.Dataset, *Index)
		k      int
		early  bool // a partition wider than the next radius is histogrammed before the last one
	}{
		{"dupkeys", dupKeyCorpus, 5, true},
		{"pubchem", wideCorpus, 1, false},
	} {
		ds, ix := c.corpus()
		grew, early := false, false
		for qi, q := range dataset.PerturbQueries(ds, 8, 12, 3) {
			got, gs, err := ix.SearchGrow(q, c.k)
			if err != nil {
				t.Fatal(err)
			}
			if want := linearKNN(ds.Vectors, q, c.k); !slices.Equal(got, want) {
				t.Fatalf("%s query %d: kNN %v, linear scan %v", c.name, qi, got, want)
			}
			if gs.Scanned {
				continue
			}
			s, afresh := ix.getScratch(), 0
			for tau := 1; tau <= gs.FinalTau; tau *= 2 {
				res, price := ix.allocate(q, tau, ix.ScanCost(tau), s)
				if want, _ := eagerAllocate(ix, q, tau); price > ix.ScanCost(tau) || !slices.Equal(res.Thresholds, want.Thresholds) {
					t.Fatalf("%s query %d tau=%d: rows kept from smaller radii allocate %v at %d, the eager DP %v", c.name, qi, tau, res.Thresholds, price, want.Thresholds)
				}
				histogrammed := 0
				for i, w := range s.widths {
					if s.known[i] >= w {
						histogrammed++
						early = early || (tau < gs.FinalTau && w > 2*tau)
					}
				}
				if s.scans != histogrammed {
					t.Fatalf("%s query %d tau=%d: %d full row estimations, %d partitions known in full", c.name, qi, tau, s.scans, histogrammed)
				}
				afresh += lazyAllocate(ix, q, tau).scans
			}
			if s.scans != gs.CNScans || afresh < s.scans {
				t.Fatalf("%s query %d: %d radii took %d full row estimations, their replay %d, and each radius on its own %d in all", c.name, qi, gs.Radii, gs.CNScans, s.scans, afresh)
			}
			ix.putScratch(s)
			grew = grew || (gs.Radii >= 3 && gs.CNScans > 0)
		}
		if !grew || early != c.early {
			t.Fatalf("%s: some query should grow through three radii of the index with a full row estimation (%v), before the last of them on a partition wider than the next: %v (%v)", c.name, grew, c.early, early)
		}
	}
}

// TestEstimatorRowsAreMonotone pins what alloc.allocate's upward cut rests
// on (alloc.Table): every row the query path hands the DP — however far
// refinement has got — starts at 0 and never decreases. That is each state
// a row passes through: started at e = 0 with its lower-bound tail, n from
// the width on, extended by summing a probed ball and by a histogram pass,
// refitted to a larger τ by the same binding (as SearchGrow does) and bound
// afresh at every τ. Five generators, τ from 0 to a quarter of the
// dimensions.
func TestEstimatorRowsAreMonotone(t *testing.T) {
	for _, ds := range []*dataset.Dataset{
		dataset.SIFTLike(3000, 1), dataset.GISTLike(3000, 2), dataset.PubChemLike(3000, 3),
		dataset.FastTextLike(3000, 4), dataset.UQVideoLike(3000, 5),
	} {
		queries := append([]bitvec.Vector{ds.Vectors[3]}, dataset.PerturbQueries(ds, 3, 5, 9)...)
		ix := buildSmall(t, ds.Vectors, Options{Seed: 4})
		params := alloc.Params{Widths: ix.parts.Widths(), EnumBudget: ix.opts.EnumBudget}
		taus := []int{0, 1, 2, 3, 5, 8, 12, 16, 24, 40, ix.dims / 8, ix.dims / 4}
		slices.Sort(taus)
		probed, histogrammed := 0, 0
		check := func(s *searchScratch, tau int, state string) {
			t.Helper()
			if err := s.table.Validate(tau); err != nil {
				t.Fatalf("%s tau=%d, %s: %v\n%v", ds.Name, tau, state, err, s.table)
			}
		}
		for _, q := range queries {
			for _, rebind := range []bool{false, true} {
				s := ix.getScratch()
				for _, tau := range taus {
					if rebind {
						ix.putScratch(s)
						s = ix.getScratch()
					}
					if s.q.Dims() == 0 {
						ix.bindQuery(q, s)
					}
					ix.startTable(tau, s)
					check(s, tau, "after startTable")
					params.Tau = tau
					for settled := false; !settled; {
						res := alloc.AllocateScratch(s.table, params, &s.dp)
						settled = true
						for i, e := range res.Thresholds {
							if ix.cnExact(i, e, s) {
								continue
							}
							settled = false
							_, probe := s.genPrice(i, e)
							ix.extendRow(i, e, tau, s)
							if probe {
								probed++
								check(s, tau, "after a probed extension")
							} else {
								histogrammed++
								check(s, tau, "after a histogram")
							}
						}
					}
				}
				ix.putScratch(s)
			}
		}
		if probed == 0 || histogrammed == 0 {
			t.Fatalf("%s: %d rows extended by probing and %d by histogram; want both", ds.Name, probed, histogrammed)
		}
	}
}
