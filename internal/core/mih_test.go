package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"gph/internal/bitvec"
	"gph/internal/dataset"
	"gph/internal/engine"
	"gph/internal/engine/enginetest"
	"gph/internal/invindex"
	"gph/internal/linscan"
	"gph/internal/partition"
)

// mihBuild builds the "mih" engine through the registry and returns the
// index under it.
func mihBuild(t testing.TB, data []bitvec.Vector, opts engine.BuildOptions) mihIndex {
	t.Helper()
	e, err := engine.Build(MIHEngineName, data, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e.(mihIndex)
}

// TestBaselineWorkIsBounded: the guard's promise read off the counters,
// on the five generators at two sizes and every τ (enginetest.BudgetHolds),
// for MIH: no query spends more on the index than the scan's price.
func TestBaselineWorkIsBounded(t *testing.T) {
	for _, gen := range []func(n int, seed int64) *dataset.Dataset{
		dataset.SIFTLike, dataset.GISTLike, dataset.PubChemLike, dataset.FastTextLike, dataset.UQVideoLike,
	} {
		for _, n := range []int{2000, 20000} {
			ds := gen(n, 11)
			ix := mihBuild(t, ds.Vectors, engine.BuildOptions{})
			queries := append(dataset.PerturbQueries(ds, 3, 6, 21), ds.Vectors[17])
			enginetest.BudgetHolds(t, fmt.Sprintf("%s n=%d", ds.Name, n), ix, ix.codes, queries, ix.MaxTau(), 0)
		}
	}
}

// TestRoundRobinBudgetHolds: a GPH index built as Fig. 3's RR column
// builds it — random arrangement, no refinement, round-robin thresholds —
// keeps the same promise. Its vector is priced against the scan like the
// DP's, so none of its queries outspends the scan on the index.
func TestRoundRobinBudgetHolds(t *testing.T) {
	for _, gen := range []func(n int, seed int64) *dataset.Dataset{dataset.PubChemLike, dataset.SIFTLike} {
		for _, n := range []int{2000, 20000} {
			ds := gen(n, 11)
			ix, err := Build(ds.Vectors, Options{Init: InitRandom, NoRefine: true, Allocator: AllocRR, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			queries := append(dataset.PerturbQueries(ds, 3, 6, 21), ds.Vectors[17])
			enginetest.BudgetHolds(t, fmt.Sprintf("%s n=%d", ds.Name, n), ix, ix.codes, queries, ix.MaxTau(), 0)
		}
	}
}

// TestOverdrawingListIsNotDecoded: a query whose one posting list
// overdraws the scan's price — four in five rows copies of the query, so
// its key lists them all — reads that list's length (one CN probe),
// decodes none of its postings and is answered by the scan.
func TestOverdrawingListIsNotDecoded(t *testing.T) {
	ds := dataset.SIFTLike(5000, 3)
	rows := slices.Clone(ds.Vectors)
	for i := range 4000 {
		rows[i+1000] = rows[0]
	}
	ix := mihBuild(t, rows, engine.BuildOptions{})
	list := ix.inv[0].EntryLen(ix.inv[0].LookupKey(rows[0].Project(ix.parts.Parts[0]).Words(), new([]byte)))
	if int64(list)*engine.CandidatePrice <= ix.codes.ScanSteps(0) {
		t.Fatalf("a list of %d postings fits the scan's %d steps; the test needs one that does not", list, ix.codes.ScanSteps(0))
	}
	got, st, err := ix.SearchStats(rows[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Scanned || st.CNProbes != 1 || st.CNScans != 0 || st.Signatures != 0 || st.SumPostings != 0 || len(got) != 4001 {
		t.Fatalf("want one CN probe, no posting decoded and 4001 rows scanned; got %d ids, %+v", len(got), *st)
	}
}

// TestMIHMatchesOracle: MIH at several m answers as the oracle does.
func TestMIHMatchesOracle(t *testing.T) {
	ds := dataset.Synthetic(600, 64, 0.3, 2)
	oracle, _ := linscan.New(ds.Vectors)
	queries := dataset.PerturbQueries(ds, 10, 3, 3)
	for _, m := range []int{2, 4, 8} {
		ix := mihBuild(t, ds.Vectors, engine.BuildOptions{NumPartitions: m})
		for _, q := range queries {
			for _, tau := range []int{0, 2, 5, 9} {
				want, _ := oracle.Search(q, tau)
				if got, err := ix.Search(q, tau); err != nil || !slices.Equal(got, want) {
					t.Fatalf("m=%d tau=%d: %d ids (%v), the oracle's %d", m, tau, len(got), err, len(want))
				}
			}
		}
	}
}

// TestMIHStatsAndErrors: a query MIH answers on the index reports one
// signature a partition at τ = 1, m = 2 (thresholds [0, 0]), and its
// postings and candidates; a negative τ is refused.
func TestMIHStatsAndErrors(t *testing.T) {
	// 20 000 rows: a scan costs 2 500 steps at least, two probes and their
	// postings far less, so the stats read are the index's.
	ds := dataset.Synthetic(20000, 32, 0.2, 5)
	ix := mihBuild(t, ds.Vectors, engine.BuildOptions{NumPartitions: 2})
	if _, err := ix.Search(ds.Vectors[0], -1); err == nil {
		t.Fatal("negative tau accepted")
	}
	enginetest.OnIndex(t, ix, ds.Vectors[0], 1)
	_, st, err := ix.SearchStats(ds.Vectors[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Results < 1 || st.Candidates < st.Results || st.Signatures != 2 || st.SumPostings < int64(st.Candidates) {
		t.Fatalf("stats implausible: %+v", st)
	}
	if ix.SizeBytes() <= 0 || ix.Len() != 20000 || ix.Dims() != 32 || ix.Name() != MIHEngineName {
		t.Fatal("accessors wrong")
	}
}

// TestSearchWithArrangement: MIH under the caller's arrangement (Fig. 7
// equips it with OS) answers as the oracle does, and its file keeps the
// arrangement.
func TestSearchWithArrangement(t *testing.T) {
	ds := dataset.Synthetic(300, 32, 0.3, 4)
	sample := partition.SampleRows(ds.Vectors, 100, 1)
	arr := partition.OS(sample, 32, 4)
	ix := mihBuild(t, ds.Vectors, engine.BuildOptions{Arrangement: arr})
	var file bytes.Buffer
	if err := ix.Save(&file); err != nil {
		t.Fatal(err)
	}
	loaded, err := engine.LoadAny(&file)
	if err != nil {
		t.Fatal(err)
	}
	if parts := loaded.(mihIndex).parts.Parts; !slices.EqualFunc(parts, arr.Parts, slices.Equal) {
		t.Fatalf("loaded arrangement %v, built under %v", parts, arr.Parts)
	}
	oracle, _ := linscan.New(ds.Vectors)
	for _, q := range dataset.PerturbQueries(ds, 5, 3, 5) {
		for _, tau := range []int{0, 4, 9} {
			want, _ := oracle.Search(q, tau)
			for _, e := range []engine.Engine{ix, loaded} {
				if got, err := e.Search(q, tau); err != nil || !slices.Equal(got, want) {
					t.Fatalf("tau=%d: %d ids (%v), the oracle's %d", tau, len(got), err, len(want))
				}
			}
		}
	}
}

// TestMIHBuildRejectsBadInput: an MIH build over no rows, or under an
// arrangement that does not cover the rows' dimensions, is refused.
func TestMIHBuildRejectsBadInput(t *testing.T) {
	if _, err := engine.Build(MIHEngineName, nil, engine.BuildOptions{}); err == nil {
		t.Fatal("empty data accepted")
	}
	ds := dataset.Synthetic(10, 32, 0.2, 1)
	bad := &partition.Partitioning{Dims: 32, Parts: [][]int{{0}}}
	if _, err := engine.Build(MIHEngineName, ds.Vectors, engine.BuildOptions{Arrangement: bad}); err == nil {
		t.Fatal("an arrangement of one dimension accepted")
	}
}

// The three ways an MIH query ends: on the index, refused before the
// query is bound (its vector's generation alone outprices the scan), and
// scanned by the guard once the counts its vector reads are known.
const (
	onIndex = iota
	refused
	guarded
)

// routeFixture is fasttext-like rows and one τ for each way a query of q
// ends, read off the counters; it fails the test if a way is missing.
func routeFixture(t *testing.T) (ds *dataset.Dataset, ix mihIndex, q bitvec.Vector, tauOf [3]int) {
	ds = dataset.FastTextLike(20000, 11)
	ix = mihBuild(t, ds.Vectors, engine.BuildOptions{})
	q = dataset.PerturbQueries(ds, 3, 6, 21)[0]
	tauOf = [3]int{-1, -1, -1}
	for tau := 0; tau < ix.Dims(); tau++ {
		_, st, err := ix.SearchStats(q, tau)
		if err != nil {
			t.Fatal(err)
		}
		route := onIndex
		if st.Scanned {
			route = refused
			if st.CNProbes+st.CNScans > 0 {
				route = guarded
			}
		}
		if tauOf[route] < 0 {
			tauOf[route] = tau
		}
	}
	if slices.Contains(tauOf[:], -1) {
		t.Fatalf("the fixture should end a query each way: first τ on the index, refused, guarded = %v", tauOf)
	}
	return ds, ix, q, tauOf
}

// TestMIHIndexQueryAllocatesItsResult: the round-robin vector is written
// into the pooled scratch, so a warm MIH query answered on the index
// allocates what a copy of its result does, nothing more
// (enginetest.ScratchReturned).
func TestMIHIndexQueryAllocatesItsResult(t *testing.T) {
	_, ix, q, tauOf := routeFixture(t)
	enginetest.ScratchReturned(t, ix, q, tauOf[onIndex])
}

// TestMIHRefusedQueryIsFree: the closed-form verdict costs nothing. A
// query the balls alone price past the scan moves no counter and
// allocates what the scan's result slice does, nothing more.
func TestMIHRefusedQueryIsFree(t *testing.T) {
	_, ix, q, tauOf := routeFixture(t)
	tau := tauOf[refused]
	enginetest.FreeScan(t, ix, q, tau)
	scan := testing.AllocsPerRun(20, func() { ix.codes.AppendWithin(q, tau, nil) })
	search := testing.AllocsPerRun(20, func() {
		if _, err := ix.Search(q, tau); err != nil {
			t.Fatal(err)
		}
	})
	if search != scan {
		t.Errorf("a refused query allocates %v times, its result slice %v", search, scan)
	}
}

// TestStreamMatchesSearchOnEveryRoute: SearchIter drained is Search,
// distances included, however the query ends.
func TestStreamMatchesSearchOnEveryRoute(t *testing.T) {
	_, ix, q, tauOf := routeFixture(t)
	for route, tau := range tauOf {
		want, err := ix.Search(q, tau)
		if err != nil {
			t.Fatal(err)
		}
		var got []int32
		for nb, err := range ix.SearchIter(q, tau) {
			if err != nil {
				t.Fatal(err)
			}
			if d := q.Hamming(ix.Vector(nb.ID)); d != nb.Distance || d > tau {
				t.Fatalf("route %d tau=%d: id %d streamed at distance %d, is at %d", route, tau, nb.ID, nb.Distance, d)
			}
			got = append(got, nb.ID)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("route %d tau=%d: the stream yields %d ids, Search %d", route, tau, len(got), len(want))
		}
	}
}

// TestKNNGrowsAcrossTheAbandonBoundary: kNN grows τ through radii the
// index answers and radii the guard sends to the scan, and returns the
// oracle's k nearest all the same.
func TestKNNGrowsAcrossTheAbandonBoundary(t *testing.T) {
	ds, ix, q, tauOf := routeFixture(t)
	oracle, err := linscan.New(ds.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	// Enough neighbours that the growth passes the first scanned radius.
	past, err := oracle.Search(q, min(tauOf[refused], tauOf[guarded]))
	if err != nil {
		t.Fatal(err)
	}
	k := len(past) + 1
	want, err := oracle.SearchKNN(q, k)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.SearchKNN(q, k)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("k=%d: got %v, the oracle's %v", k, got, want)
	}
}

// TestMIHScratchComesBackClean: every way out of an MIH query leaves the
// pooled bitmap all zero — on the index, refused, scanned by the guard,
// streamed and stopped early, and an invalid query, which takes no
// scratch.
func TestMIHScratchComesBackClean(t *testing.T) {
	ds, ix, q, tauOf := routeFixture(t)
	// On the index: a stored vector, a result for the stream to stop at,
	// answered from fewer candidates than bitmap words, so that IDSet.Reset
	// clears by its members.
	stored := slices.IndexFunc(ds.Vectors, func(v bitvec.Vector) bool {
		_, st, err := ix.SearchStats(v, 2)
		return err == nil && !st.Scanned && st.Candidates > st.Results && st.Candidates < ix.Len()/64
	})
	if stored < 0 {
		t.Fatal("no stored vector is answered on the index at τ = 2 from few candidates")
	}
	enginetest.PoolComesBackClean(t, &ix.scratch, func(s *searchScratch) *invindex.IDSet { return &s.cand }, slices.Concat(
		enginetest.SearchExits("on the index", ix, ds.Vectors[stored], 2, true),
		enginetest.SearchExits("guarded", ix, q, tauOf[guarded], true),
		enginetest.SearchExits("refused", ix, q, tauOf[refused], true),
		enginetest.SearchExits("an error", ix, q, -1, false),
	))
}

// TestScanGuardPerPartition pins the budget semantics: EnumBudget caps
// each partition's ball individually, so a query whose per-partition
// balls all fit must enumerate (not scan) even when their sum exceeds the
// budget, and must scan — before it binds the query — once any single
// ball overflows it. (20 000 rows, so that the scan's price is not what
// stops either query.)
func TestScanGuardPerPartition(t *testing.T) {
	ds := dataset.Synthetic(20000, 32, 0.3, 5)
	build := func(budget int64) mihIndex {
		return mihBuild(t, ds.Vectors, engine.BuildOptions{NumPartitions: 2, EnumBudget: budget})
	}
	// tau=3, m=2 → thresholds [1, 1]; ball(16, 1) = 17 signatures per partition.
	const perPartBall = 17
	enginetest.OnIndex(t, build(perPartBall), ds.Vectors[0], 3)
	enginetest.FreeScan(t, build(perPartBall-1), ds.Vectors[0], 3)
}

// BenchmarkSearchStats measures the per-query cost of the MIH probe
// path; run with -benchmem to see the effect of the pooled scratch.
func BenchmarkSearchStats(b *testing.B) {
	ds := dataset.GISTLike(10000, 42)
	ix := mihBuild(b, ds.Vectors, engine.BuildOptions{NumPartitions: 8})
	queries := dataset.PerturbQueries(ds, 16, 4, 43)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.SearchStats(queries[i%len(queries)], 12); err != nil {
			b.Fatal(err)
		}
	}
}
