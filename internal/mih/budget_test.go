package mih

import (
	"fmt"
	"slices"
	"testing"

	"gph/internal/bitvec"
	"gph/internal/dataset"
	"gph/internal/engine"
	"gph/internal/engine/enginetest"
	"gph/internal/invindex"
	"gph/internal/linscan"
)

// TestBaselineWorkIsBounded: the guard's promise read off the counters,
// on the five generators at two sizes and every τ (enginetest.BudgetHolds).
// A list is billed before it is decoded, so no query overdraws the
// budget, not even by the list that sends it to the scan.
func TestBaselineWorkIsBounded(t *testing.T) {
	for _, gen := range []func(n int, seed int64) *dataset.Dataset{
		dataset.SIFTLike, dataset.GISTLike, dataset.PubChemLike, dataset.FastTextLike, dataset.UQVideoLike,
	} {
		for _, n := range []int{2000, 20000} {
			ds := gen(n, 11)
			ix, err := Build(ds.Vectors, Options{})
			if err != nil {
				t.Fatal(err)
			}
			queries := append(dataset.PerturbQueries(ds, 3, 6, 21), ds.Vectors[17])
			enginetest.BudgetHolds(t, fmt.Sprintf("%s n=%d", ds.Name, n), ix, ix.codes, queries, ix.MaxTau(), 0)
		}
	}
}

// TestOverdrawingListIsNotDecoded: a query whose first posting list
// alone overdraws the budget — every row one vector, so the query's
// exact key lists them all — probes that one signature, decodes none of
// its postings and is answered by the scan.
func TestOverdrawingListIsNotDecoded(t *testing.T) {
	ds := dataset.SIFTLike(5000, 3)
	same := make([]bitvec.Vector, len(ds.Vectors))
	for i := range same {
		same[i] = ds.Vectors[0]
	}
	ix, err := Build(same, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if list := ix.inv[0].EntryLen(0); int64(list)*engine.CandidatePrice <= ix.codes.ScanSteps(0) {
		t.Fatalf("a list of %d postings fits the scan's %d steps; the test needs one that does not", list, ix.codes.ScanSteps(0))
	}
	got, st, err := ix.SearchStats(same[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Scanned || st.Signatures != 1 || st.SumPostings != 0 || len(got) != len(same) {
		t.Fatalf("want one signature probed, no posting decoded and every row scanned; got %d ids, %+v", len(got), *st)
	}
}

// The three ways a query ends: on the index, refused in closed form
// before a scratch is taken, abandoned to the scan by a posting list.
const (
	onIndex = iota
	refused
	abandoned
)

// routeFixture is fasttext-like rows and one τ for each way a query of q ends,
// read off the counters; it fails the test if a way is missing (the
// fixture holds all three under the kernel and the portable scan price).
func routeFixture(t *testing.T) (ds *dataset.Dataset, ix *Index, q bitvec.Vector, tauOf [3]int) {
	ds = dataset.FastTextLike(20000, 11)
	ix, err := Build(ds.Vectors, Options{})
	if err != nil {
		t.Fatal(err)
	}
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
			if st.Signatures > 0 {
				route = abandoned
			}
		}
		if tauOf[route] < 0 {
			tauOf[route] = tau
		}
	}
	if slices.Contains(tauOf[:], -1) {
		t.Fatalf("the fixture should end a query each way: first τ on the index, refused, abandoned = %v", tauOf)
	}
	return ds, ix, q, tauOf
}

// TestRefusedQueryIsFree: the closed-form verdict costs nothing. A query
// the balls alone price past the scan moves no counter, takes no scratch
// (the pool of an index that has answered nothing else stays empty) and
// allocates what the scan's result slice does, nothing more.
func TestRefusedQueryIsFree(t *testing.T) {
	ds, _, q, tauOf := routeFixture(t)
	ix, err := Build(ds.Vectors, Options{}) // one that has never probed
	if err != nil {
		t.Fatal(err)
	}
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
	if s := ix.scratch.Get(); s != nil {
		t.Error("a refused query took a scratch")
	}
}

// TestIndexQueryReturnsScratch: a query that ends on the index hands its
// scratch back to the pool (enginetest.ScratchReturned).
func TestIndexQueryReturnsScratch(t *testing.T) {
	_, ix, q, tauOf := routeFixture(t)
	enginetest.ScratchReturned(t, ix, q, tauOf[onIndex])
}

// TestStreamMatchesSearchOnEveryRoute: SearchIter drained is Search,
// distances included, however the query ends — on the index, refused, or
// abandoned mid-ball with candidates already collected.
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

// TestKNNGrowsAcrossTheAbandonBoundary: engine.GrowKNN doubles τ through
// radii the index answers and radii it abandons or refuses, and returns
// the oracle's k nearest all the same.
func TestKNNGrowsAcrossTheAbandonBoundary(t *testing.T) {
	ds, ix, q, tauOf := routeFixture(t)
	oracle, err := linscan.New(ds.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	// Enough neighbours that the growth passes the first scanned radius.
	past, err := oracle.Search(q, min(tauOf[refused], tauOf[abandoned]))
	if err != nil {
		t.Fatal(err)
	}
	k := len(past) + 1
	want, err := oracle.SearchKNN(q, k)
	if err != nil {
		t.Fatal(err)
	}
	got, err := engine.GrowKNN(ix, q, k)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("k=%d: got %v, the oracle's %v", k, got, want)
	}
}

// TestScratchComesBackClean: no query clears the collector's bitmap on
// the way in, so every way out leaves the pooled one all zero — on the
// index, abandoned to the scan with postings already collected, streamed
// and stopped early, refused before a scratch is taken, and refused as
// an error.
func TestScratchComesBackClean(t *testing.T) {
	ds, ix, q, tauOf := routeFixture(t)
	if _, st, err := ix.SearchStats(q, tauOf[abandoned]); err != nil || st.SumPostings == 0 {
		t.Fatalf("tau=%d: the abandoned query should have collected postings first: %+v, %v", tauOf[abandoned], st, err)
	}
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
	enginetest.PoolComesBackClean(t, &ix.scratch, func(s *searchScratch) *invindex.IDSet { return &s.col.Set }, slices.Concat(
		enginetest.SearchExits("on the index", ix, ds.Vectors[stored], 2, true),
		enginetest.SearchExits("abandoned", ix, q, tauOf[abandoned], true),
		enginetest.SearchExits("refused", ix, q, tauOf[refused], false),
		enginetest.SearchExits("an error", ix, q, -1, false),
	))
}
