package hmsearch

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"gph/internal/bitvec"
	"gph/internal/dataset"
	"gph/internal/engine"
	"gph/internal/engine/enginetest"
	"gph/internal/invindex"
	"gph/internal/linscan"
)

// TestBaselineWorkIsBounded: the guard's promise read off the counters,
// on the five generators at two sizes and every τ the index was built
// for (enginetest.BudgetHolds). HmSearch bills a posting at a time, so
// the overdrawing charge is one posting. The larger size is 20 000 rows
// where the deletion variants of that many build in seconds; the two
// widest generators stop where theirs do (gist-like 20 000: 10 s and
// 175 MB of index, pubchem-like: 27 s and 440 MB).
func TestBaselineWorkIsBounded(t *testing.T) {
	const buildTau = 16
	for _, c := range []struct {
		gen   func(n int, seed int64) *dataset.Dataset
		large int
	}{
		{dataset.SIFTLike, 20000}, {dataset.GISTLike, 8000}, {dataset.PubChemLike, 4000},
		{dataset.FastTextLike, 20000}, {dataset.UQVideoLike, 20000},
	} {
		for _, n := range []int{2000, c.large} {
			ds := c.gen(n, 11)
			ix, err := Build(ds.Vectors, buildTau, Options{})
			if err != nil {
				t.Fatal(err)
			}
			queries := append(dataset.PerturbQueries(ds, 3, 6, 21), ds.Vectors[17])
			enginetest.BudgetHolds(t, fmt.Sprintf("%s n=%d", ds.Name, n), ix, ix.codes, queries, buildTau, 1)
		}
	}
}

const fixtureTau = 16

// wideFixture is pubchem-like rows (14 words a row: no row kernel, so the
// dense scan is priced alike on every host), on which the queries of one
// sweep end all the ways a query can where the sparse scan has its kernel
// price — refused under it, on the index or abandoned past it — and both
// of the latter two everywhere. Built once: the deletion variants of
// 4 000 × 881 bits take seconds.
var wideFixture = sync.OnceValues(func() (*dataset.Dataset, *Index) {
	ds := dataset.PubChemLike(4000, 11)
	ix, err := Build(ds.Vectors, fixtureTau, Options{})
	if err != nil {
		panic(err)
	}
	return ds, ix
})

// tinyFixture is refused at every τ on every host: 500 rows scan in
// fewer steps than HmSearch's 265 probes cost.
func tinyFixture(t *testing.T) (*dataset.Dataset, *Index) {
	ds := dataset.UQVideoLike(500, 11)
	ix, err := Build(ds.Vectors, fixtureTau, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ds, ix
}

// TestRefusedQueryIsFree: the closed-form verdict costs nothing. A query
// whose probes alone are priced past the scan moves no counter, takes no
// scratch (the pool of an index that has answered nothing else stays
// empty) and allocates what the scan's result slice does, nothing more.
func TestRefusedQueryIsFree(t *testing.T) {
	ds, ix := tinyFixture(t)
	q, tau := ds.Vectors[17], 4
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
	ds, ix := wideFixture()
	enginetest.ScratchReturned(t, ix, dataset.PerturbQueries(ds, 1, 6, 21)[0], fixtureTau)
}

// TestStreamMatchesSearchOnEveryRoute: SearchIter drained is Search,
// distances included, however the query ends — on the index, refused, or
// abandoned mid-probe with candidates already collected.
func TestStreamMatchesSearchOnEveryRoute(t *testing.T) {
	var onIndex, refused, abandoned int
	sweep := func(ds *dataset.Dataset, ix *Index) {
		for _, q := range append(dataset.PerturbQueries(ds, 6, 6, 21), ds.Vectors[17]) {
			for tau := 0; tau <= fixtureTau; tau++ {
				want, st, err := ix.SearchStats(q, tau)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case !st.Scanned:
					onIndex++
				case st.Signatures == 0:
					refused++
				default:
					abandoned++
				}
				var got []int32
				for nb, err := range ix.SearchIter(q, tau) {
					if err != nil {
						t.Fatal(err)
					}
					if d := q.Hamming(ix.Vector(nb.ID)); d != nb.Distance || d > tau {
						t.Fatalf("%s tau=%d: id %d streamed at distance %d, is at %d", ds.Name, tau, nb.ID, nb.Distance, d)
					}
					got = append(got, nb.ID)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s tau=%d: the stream yields %d ids, Search %d: %+v", ds.Name, tau, len(got), len(want), *st)
				}
			}
		}
	}
	sweep(wideFixture())
	sweep(tinyFixture(t))
	if onIndex == 0 || refused == 0 || abandoned == 0 {
		t.Fatalf("the fixtures should end queries each way: %d on the index, %d refused, %d abandoned", onIndex, refused, abandoned)
	}
}

// TestKNNGrowsAcrossTheAbandonBoundary: engine.GrowKNN doubles τ through
// radii the index answers and radii it abandons or refuses, and returns
// the oracle's nearest within the build τ all the same.
func TestKNNGrowsAcrossTheAbandonBoundary(t *testing.T) {
	ds, ix := wideFixture()
	oracle, err := linscan.New(ds.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	scanned := 0
	for _, q := range append(dataset.PerturbQueries(ds, 6, 6, 21), ds.Vectors[17]) {
		for tau := 1; tau <= fixtureTau; tau *= 2 {
			if _, st, _ := ix.SearchStats(q, tau); st.Scanned {
				scanned++
			}
		}
		within, err := oracle.Search(q, fixtureTau)
		if err != nil {
			t.Fatal(err)
		}
		k := len(within) + 1 // more than the bound holds: every radius runs
		want := engine.RankNeighbors(oracle, q, within, k)
		got, err := engine.GrowKNN(ix, q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("k=%d: got %v, the oracle's %v", k, got, want)
		}
	}
	if scanned == 0 {
		t.Fatal("the fixture should scan at some radius of the growth")
	}
}

// TestScratchComesBackClean: no query clears the collector's bitmap on
// the way in, so every way out leaves the pooled one all zero — on the
// index from fewer candidates than bitmap words, so that IDSet.Reset
// clears by its members; abandoned mid-probe with postings already
// collected; streamed and stopped early; and refused as an error.
func TestScratchComesBackClean(t *testing.T) {
	ds, ix := wideFixture()
	type query struct {
		q   bitvec.Vector
		tau int
	}
	var index, abandon *query
	for _, q := range append(dataset.PerturbQueries(ds, 6, 6, 21), ds.Vectors[17]) {
		for tau := 0; tau <= fixtureTau; tau++ {
			_, st, err := ix.SearchStats(q, tau)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case index == nil && !st.Scanned && st.Results > 0 && st.Candidates > st.Results && st.Candidates < ix.Len()/64:
				index = &query{q, tau}
			case abandon == nil && st.Scanned && st.SumPostings > 0:
				abandon = &query{q, tau}
			}
		}
	}
	if index == nil || abandon == nil {
		t.Fatalf("the fixture should answer a query on the index with results, from fewer candidates than bitmap words (%v), and abandon one with postings collected (%v)", index != nil, abandon != nil)
	}
	enginetest.PoolComesBackClean(t, &ix.scratch, func(s *searchScratch) *invindex.IDSet { return &s.col.Set }, slices.Concat(
		enginetest.SearchExits("on the index", ix, index.q, index.tau, true),
		enginetest.SearchExits("abandoned", ix, abandon.q, abandon.tau, true),
		enginetest.SearchExits("an error", ix, index.q, fixtureTau+1, false),
	))
}
