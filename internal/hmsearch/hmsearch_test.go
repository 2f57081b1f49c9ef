package hmsearch

import (
	"testing"

	"gph/internal/bitvec"
	"gph/internal/dataset"
	"gph/internal/engine/enginetest"
	"gph/internal/linscan"
)

func TestNumPartitions(t *testing.T) {
	cases := []struct{ tau, want int }{
		{0, 1}, {1, 2}, {2, 2}, {3, 3}, {4, 3}, {5, 4}, {12, 7},
	}
	for _, c := range cases {
		if got := NumPartitions(64, c.tau); got != c.want {
			t.Fatalf("NumPartitions(64,%d) = %d, want %d", c.tau, got, c.want)
		}
	}
	if NumPartitions(4, 100) != 4 {
		t.Fatal("NumPartitions must clamp to dims")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, 4, Options{}); err == nil {
		t.Fatal("empty data accepted")
	}
	ds := dataset.Synthetic(10, 16, 0.2, 1)
	if _, err := Build(ds.Vectors, -1, Options{}); err == nil {
		t.Fatal("negative tau accepted")
	}
}

// TestSearchMatchesOracle: HmSearch is exact; results must match the
// scan at the build τ and at every smaller τ.
func TestSearchMatchesOracle(t *testing.T) {
	ds := dataset.Synthetic(500, 48, 0.3, 2)
	oracle, _ := linscan.New(ds.Vectors)
	buildTau := 8
	ix, err := Build(ds.Vectors, buildTau, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Tau() != buildTau {
		t.Fatal("Tau accessor")
	}
	queries := dataset.PerturbQueries(ds, 10, 3, 3)
	for _, q := range queries {
		for _, tau := range []int{0, 3, 5, 8} {
			want, _ := oracle.Search(q, tau)
			got, err := ix.Search(q, tau)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != len(got) {
				t.Fatalf("tau=%d: want %d got %d", tau, len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("tau=%d: id mismatch", tau)
				}
			}
		}
	}
}

func TestSearchBeyondBuildTauRejected(t *testing.T) {
	ds := dataset.Synthetic(100, 32, 0.2, 4)
	ix, _ := Build(ds.Vectors, 4, Options{})
	if _, err := ix.Search(ds.Vectors[0], 5); err == nil {
		t.Fatal("query beyond build tau accepted")
	}
	if _, err := ix.Search(ds.Vectors[0], -1); err == nil {
		t.Fatal("negative tau accepted")
	}
}

func TestIndexLargerThanPlainPostings(t *testing.T) {
	ds := dataset.Synthetic(300, 64, 0.2, 5)
	small, _ := Build(ds.Vectors, 2, Options{})
	big, _ := Build(ds.Vectors, 12, Options{})
	// More partitions at higher τ, but each narrower; sizes must both
	// be positive and the accessor consistent.
	if small.SizeBytes() <= 0 || big.SizeBytes() <= 0 {
		t.Fatal("SizeBytes")
	}
	if small.Len() != 300 {
		t.Fatal("Len")
	}
}

// TestVariantPositionsDoNotWrap: at 881 dimensions (PubChem's) and τ = 0
// the one partition is 881 bits wide, and a deletion variant's key must
// tell the dimension it deletes from that dimension plus 256. Kept in a
// byte, the position wrapped: the variant of q deleting dimension 10 was
// the variant of y deleting 266, and y — at distance 2, differing at
// exactly those two — was a candidate, billed as a posting. The rest of
// the collection is one far vector repeated: the scan's price is then
// the dense one (every row's first word is the same) and, at this n,
// above the query's 882 probes, so the index answers.
func TestVariantPositionsDoNotWrap(t *testing.T) {
	const dims, n = 881, 1450
	q := bitvec.New(dims)
	for d := 0; d < dims; d += 7 {
		q.Set(d)
	}
	q.Set(10)
	q.Clear(266)
	y := q.Clone()
	y.Flip(10)
	y.Flip(266)
	far := q.Clone()
	for d := 0; d < dims; d += 2 {
		far.Flip(d)
	}
	data := []bitvec.Vector{y}
	for len(data) < n {
		data = append(data, far)
	}
	ix, err := Build(data, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	enginetest.OnIndex(t, ix, q, 0)
	ids, st, err := ix.SearchStats(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 || st.Candidates != 0 || st.SumPostings != 0 {
		t.Fatalf("y, at distance %d, is held under one of q's keys: %d results, %d candidates, %d postings",
			q.Hamming(y), len(ids), st.Candidates, st.SumPostings)
	}
	// One flip from y, the variant deleting 10 holds it.
	p := y.Clone()
	p.Flip(10)
	if _, st, err := ix.SearchStats(p, 0); err != nil || st.Scanned || st.Candidates != 1 {
		t.Fatalf("a probe at distance 1 from y: %+v, %v", st, err)
	}
}
