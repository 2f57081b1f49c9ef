package partalloc

import (
	"slices"
	"testing"

	"gph/internal/dataset"
	"gph/internal/engine"
	"gph/internal/engine/enginetest"
	"gph/internal/invindex"
	"gph/internal/linscan"
	"gph/internal/partition"
)

func TestNumPartitions(t *testing.T) {
	if NumPartitions(64, 5) != 6 {
		t.Fatal("m must be τ+1")
	}
	if NumPartitions(4, 100) != 4 {
		t.Fatal("m must clamp to dims")
	}
	if NumPartitions(64, 0) != 2 {
		t.Fatal("m floor is 2")
	}
}

// TestSearchMatchesOracle: PartAlloc is exact under the general
// pigeonhole allocation; results must match the scan.
func TestSearchMatchesOracle(t *testing.T) {
	ds := dataset.Synthetic(500, 48, 0.3, 2)
	oracle, _ := linscan.New(ds.Vectors)
	buildTau := 7
	ix, err := Build(ds.Vectors, buildTau, Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := dataset.PerturbQueries(ds, 10, 3, 3)
	for _, q := range queries {
		for _, tau := range []int{0, 3, 5, 7} {
			want, _ := oracle.Search(q, tau)
			got, stats, err := ix.SearchStats(q, tau)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != len(got) {
				t.Fatalf("tau=%d: want %d got %d (T=%v)", tau, len(want), len(got), stats.Thresholds)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("tau=%d: id mismatch", tau)
				}
			}
			// Allocation invariant: thresholds in {−1,0,1} summing to
			// τ−m+1.
			sum := 0
			for _, e := range stats.Thresholds {
				if e < -1 || e > 1 {
					t.Fatalf("threshold %d outside {−1,0,1}", e)
				}
				sum += e
			}
			if want := tau - len(stats.Thresholds) + 1; sum != want {
				t.Fatalf("tau=%d: threshold sum %d, want %d", tau, sum, want)
			}
		}
	}
}

func TestErrors(t *testing.T) {
	if _, err := Build(nil, 4, Options{}); err == nil {
		t.Fatal("empty data accepted")
	}
	ds := dataset.Synthetic(100, 32, 0.2, 4)
	if _, err := Build(ds.Vectors, -1, Options{}); err == nil {
		t.Fatal("negative tau accepted")
	}
	ix, _ := Build(ds.Vectors, 4, Options{})
	if _, err := ix.Search(ds.Vectors[0], 5); err == nil {
		t.Fatal("query beyond build tau accepted")
	}
	if ix.Tau() != 4 || ix.Len() != 100 || ix.SizeBytes() <= 0 {
		t.Fatal("accessors")
	}
}

// TestBuildRejectsDimsMismatchArrangement: an arrangement that is
// internally valid but covers a different dimensionality than the
// data (possible in a corrupt index file) must error, not panic at
// query time.
func TestBuildRejectsDimsMismatchArrangement(t *testing.T) {
	ds := dataset.Synthetic(20, 16, 0.2, 1)
	arr := partition.EquiWidth(32, NumPartitions(16, 3))
	if _, err := Build(ds.Vectors, 3, Options{Arrangement: arr}); err == nil {
		t.Fatal("arrangement over 32 dims accepted for 16-dim data")
	}
}

// TestCandidatesComeBackClean: no query clears the pooled candidate set's
// bitmap on the way in, so every way out leaves it all zero — a query
// answered (the positional filter and FilterWithin compact the
// candidates) and queries refused.
func TestCandidatesComeBackClean(t *testing.T) {
	ds := dataset.Synthetic(500, 48, 0.3, 2)
	ix, err := Build(ds.Vectors, 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := dataset.PerturbQueries(ds, 1, 3, 3)[0]
	if _, st, err := ix.SearchStats(q, 7); err != nil || st.Candidates <= st.Results {
		t.Fatalf("the query should filter candidates away: %+v, %v", st, err)
	}
	enginetest.PoolComesBackClean(t, &ix.cands, func(c *engine.Collector) *invindex.IDSet { return &c.Set }, slices.Concat(
		enginetest.SearchExits("answered", ix, q, 7, true),
		enginetest.SearchExits("τ past the build's", ix, q, 8, false),
		enginetest.SearchExits("a negative τ", ix, q, -1, false),
	))
}
