package core

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"gph/internal/bitvec"
	"gph/internal/dataset"
)

// knnTestIndex builds a small index over random 64-dim vectors.
func knnTestIndex(t *testing.T, n int, seed int64) (*Index, []bitvec.Vector) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([]bitvec.Vector, n)
	for i := range data {
		v := bitvec.New(64)
		for d := 0; d < 64; d++ {
			if rng.Intn(2) == 1 {
				v.Set(d)
			}
		}
		data[i] = v
	}
	ix, err := Build(data, Options{NumPartitions: 3, MaxTau: 16, Seed: seed, SampleSize: 100, WorkloadSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	return ix, data
}

// linearKNN is the ground truth: full sort by (distance, id).
func linearKNN(data []bitvec.Vector, q bitvec.Vector, k int) []Neighbor {
	all := make([]Neighbor, len(data))
	for i, v := range data {
		all[i] = Neighbor{ID: int32(i), Distance: q.Hamming(v)}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Distance != all[b].Distance {
			return all[a].Distance < all[b].Distance
		}
		return all[a].ID < all[b].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// TestKNNMatchesLinearScan: SearchKNN must agree with a linear scan
// on random data for a sweep of k and query positions.
func TestKNNMatchesLinearScan(t *testing.T) {
	ix, data := knnTestIndex(t, 4000, 5)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 8; trial++ {
		q := data[rng.Intn(len(data))].Clone()
		for f := 0; f < trial; f++ {
			q.Flip(rng.Intn(64))
		}
		for _, k := range []int{1, 3, 10, 50} {
			want := linearKNN(data, q, k)
			got, err := ix.SearchKNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: got %d results, want %d", trial, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d k=%d pos %d: got %v, want %v", trial, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestKNNTiesAtKth: when several vectors share the k-th distance, the
// lowest ids win — deterministically.
func TestKNNTiesAtKth(t *testing.T) {
	// Eight vectors at distance 1 from the query, four at distance 0.
	mk := func(bits ...int) bitvec.Vector {
		v := bitvec.New(64)
		for _, b := range bits {
			v.Set(b)
		}
		return v
	}
	q := bitvec.New(64)
	data := []bitvec.Vector{
		mk(0), mk(1), mk(), mk(2), mk(), mk(3), mk(4), mk(), mk(5), mk(),
	}
	ix, err := Build(data, Options{NumPartitions: 2, MaxTau: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// k=6: the four distance-0 vectors (ids 2,4,7,9) plus the two
	// lowest-id distance-1 vectors (ids 0,1).
	got, err := ix.SearchKNN(q, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := []Neighbor{
		{ID: 2, Distance: 0}, {ID: 4, Distance: 0}, {ID: 7, Distance: 0},
		{ID: 9, Distance: 0}, {ID: 0, Distance: 1}, {ID: 1, Distance: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pos %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// TestKNNByScanSelects: the scan route's kNN counts the distances, finds
// the one the k-th neighbour lies at, keeps what is nearer and the
// lowest ids at it, and sorts only those — the prefix of the full sort
// the linear scan makes, for k = 1, for every cut that falls inside a
// run of equal distances (sixteen dimensions leave 500 rows at most
// seventeen distances to share), for k = n, and, through SearchGrow,
// which clamps it, for k > n.
func TestKNNByScanSelects(t *testing.T) {
	ds := dataset.Synthetic(500, 16, 0.3, 41)
	data := ds.Vectors
	ix := buildSmall(t, data, Options{NumPartitions: 2, Seed: 1})
	tiesAtCut := 0
	for _, q := range append(dataset.PerturbQueries(ds, 4, 3, 5), data[0], bitvec.New(16)) {
		all := linearKNN(data, q, len(data))
		for _, k := range []int{1, 2, 7, 60, 250, len(data) - 1, len(data)} {
			got := ix.knnByScan(q, k)
			if !slices.Equal(got, all[:k]) {
				t.Fatalf("k=%d: selection %v, full sort %v", k, got, all[:k])
			}
			if k < len(all) && all[k].Distance == all[k-1].Distance {
				tiesAtCut++
			}
		}
		got, gs, err := ix.SearchGrow(q, len(data)+50)
		if err != nil || !gs.Scanned || !slices.Equal(got, all) {
			t.Fatalf("k > n: err=%v, stats %+v, %d neighbours of %d", err, gs, len(got), len(all))
		}
	}
	if tiesAtCut == 0 {
		t.Fatal("no cut fell inside a run of equal distances")
	}
}

// TestKNNKBeyondN: k larger than the collection clamps to returning
// everything, sorted by (distance, id).
func TestKNNKBeyondN(t *testing.T) {
	ix, data := knnTestIndex(t, 40, 9)
	q := data[0]
	got, err := ix.SearchKNN(q, 1000)
	if err != nil {
		t.Fatal(err)
	}
	want := linearKNN(data, q, len(data))
	if len(got) != len(data) {
		t.Fatalf("got %d results, want all %d", len(got), len(data))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pos %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// TestKNNInvalidInputs: k ≤ 0 and dimension mismatches are caller
// errors marked ErrInvalidQuery.
func TestKNNInvalidInputs(t *testing.T) {
	ix, _ := knnTestIndex(t, 30, 3)
	for _, k := range []int{0, -5} {
		if _, err := ix.SearchKNN(bitvec.New(64), k); !errors.Is(err, ErrInvalidQuery) {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
	if _, err := ix.SearchKNN(bitvec.New(32), 3); !errors.Is(err, ErrInvalidQuery) {
		t.Fatal("dimension mismatch not flagged")
	}
}

// TestKNNEmptyIndex: a core index cannot be empty (Build rejects an
// empty collection — the sharded layer is the empty-capable entry
// point, covered in internal/shard), so the contract here is a clean
// build-time error rather than an empty answer.
func TestKNNEmptyIndex(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Fatal("empty build accepted")
	}
	if _, err := Build([]bitvec.Vector{}, Options{}); err == nil {
		t.Fatal("empty build accepted")
	}
}
