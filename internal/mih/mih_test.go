package mih

import (
	"testing"

	"gph/internal/dataset"
	"gph/internal/engine/enginetest"
	"gph/internal/linscan"
	"gph/internal/partition"
)

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Fatal("empty data accepted")
	}
	ds := dataset.Synthetic(10, 16, 0.2, 1)
	bad := &partition.Partitioning{Dims: 16, Parts: [][]int{{0}}}
	if _, err := Build(ds.Vectors, Options{Arrangement: bad}); err == nil {
		t.Fatal("invalid arrangement accepted")
	}
}

func TestSearchMatchesOracle(t *testing.T) {
	ds := dataset.Synthetic(600, 64, 0.3, 2)
	oracle, _ := linscan.New(ds.Vectors)
	for _, m := range []int{2, 4, 8} {
		ix, err := Build(ds.Vectors, Options{NumPartitions: m})
		if err != nil {
			t.Fatal(err)
		}
		queries := dataset.PerturbQueries(ds, 10, 3, 3)
		for _, q := range queries {
			for _, tau := range []int{0, 2, 5, 9} {
				want, _ := oracle.Search(q, tau)
				got, err := ix.Search(q, tau)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) != len(got) {
					t.Fatalf("m=%d tau=%d: want %d got %d", m, tau, len(want), len(got))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("m=%d tau=%d: id mismatch", m, tau)
					}
				}
			}
		}
	}
}

func TestSearchWithArrangement(t *testing.T) {
	ds := dataset.Synthetic(300, 32, 0.3, 4)
	sample := partition.SampleRows(ds.Vectors, 100, 1)
	arr := partition.OS(sample, 32, 4)
	ix, err := Build(ds.Vectors, Options{NumPartitions: 4, Arrangement: arr})
	if err != nil {
		t.Fatal(err)
	}
	oracle, _ := linscan.New(ds.Vectors)
	q := ds.Vectors[0]
	want, _ := oracle.Search(q, 4)
	got, _ := ix.Search(q, 4)
	if len(want) != len(got) {
		t.Fatalf("want %d got %d", len(want), len(got))
	}
}

func TestStatsAndErrors(t *testing.T) {
	// 20 000 rows: a scan costs 2 500 steps at least, two probes and their
	// postings far less, so the stats read are the index's.
	ds := dataset.Synthetic(20000, 32, 0.2, 5)
	ix, _ := Build(ds.Vectors, Options{NumPartitions: 2})
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
	if ix.SizeBytes() <= 0 || ix.Len() != 20000 || ix.Dims() != 32 {
		t.Fatal("accessors wrong")
	}
}
