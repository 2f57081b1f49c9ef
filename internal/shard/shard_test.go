package shard

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"gph/internal/bitvec"
	"gph/internal/core"
	"gph/internal/dataset"
	"gph/internal/engine/enginetest"
)

// testOpts keeps per-shard builds fast: small partitioning sample and
// surrogate workload, modest MaxTau.
func testOpts() core.Options {
	return core.Options{NumPartitions: 4, MaxTau: 16, Seed: 1, SampleSize: 200, WorkloadSize: 8}
}

// bruteRange is the ground truth for sharded range search: a linear
// scan over the live set, sorted by id.
func bruteRange(live map[int32]bitvec.Vector, q bitvec.Vector, tau int) []int32 {
	out := []int32{}
	for id, v := range live {
		if q.HammingWithin(v, tau) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// bruteKNN is the ground truth for sharded kNN: full sort of the live
// set by (distance, id).
func bruteKNN(live map[int32]bitvec.Vector, q bitvec.Vector, k int) []core.Neighbor {
	all := make([]core.Neighbor, 0, len(live))
	for id, v := range live {
		all = append(all, core.Neighbor{ID: id, Distance: q.Hamming(v)})
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

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSearchEquivalence is the headline determinism guarantee: for
// the same data, a sharded search returns exactly the id set a single
// core index returns, at every threshold, and kNN agrees too.
func TestSearchEquivalence(t *testing.T) {
	// 4 000 rows a shard: a shard's scan (500 key-scan steps by the kernel's
	// price) is dearer than an index plan at τ ≤ 2, so both sides of the
	// comparison merge index results there and scans past it.
	ds := dataset.UQVideoLike(16000, 7)
	single, err := core.Build(ds.Vectors, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Build(ds.Vectors, 4, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	queries := dataset.PerturbQueries(ds, 10, 4, 99)
	for _, tau := range []int{0, 2} {
		enginetest.OnIndex(t, single, queries[0], tau)
		enginetest.OnIndex(t, sharded, queries[0], tau)
	}
	for _, tau := range []int{0, 2, 6, 12} {
		for qi, q := range queries {
			want, err := single.Search(q, tau)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sharded.Search(q, tau)
			if err != nil {
				t.Fatal(err)
			}
			if !equalIDs(want, got) {
				t.Fatalf("tau=%d query %d: single %v, sharded %v", tau, qi, want, got)
			}
		}
	}
	for _, k := range []int{1, 5, 40} {
		for qi, q := range queries {
			want, err := single.SearchKNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sharded.SearchKNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != len(got) {
				t.Fatalf("k=%d query %d: single %d results, sharded %d", k, qi, len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("k=%d query %d result %d: single %v, sharded %v", k, qi, i, want[i], got[i])
				}
			}
		}
	}
}

// TestUpdateEquivalence mixes Insert, Delete and Compact and checks
// that searches keep matching a linear scan of the live set at every
// stage — the delta buffer and tombstones must be invisible to
// callers.
func TestUpdateEquivalence(t *testing.T) {
	// 3 000 rows a shard, so that tombstones are filtered out of index
	// results (τ = 1) as well as out of scans (τ = 8).
	ds := dataset.SIFTLike(9000, 3)
	sharded, err := Build(ds.Vectors, 3, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	enginetest.OnIndex(t, sharded, ds.Vectors[0], 1)
	live := map[int32]bitvec.Vector{}
	for id, v := range ds.Vectors {
		live[int32(id)] = v
	}
	rng := rand.New(rand.NewSource(11))
	fresh := dataset.SIFTLike(200, 4)
	queries := dataset.PerturbQueries(ds, 6, 3, 55)

	check := func(stage string) {
		t.Helper()
		if sharded.Len() != len(live) {
			t.Fatalf("%s: Len %d, want %d", stage, sharded.Len(), len(live))
		}
		for _, tau := range []int{1, 3, 8} {
			for qi, q := range queries {
				want := bruteRange(live, q, tau)
				got, err := sharded.Search(q, tau)
				if err != nil {
					t.Fatal(err)
				}
				if !equalIDs(want, got) {
					t.Fatalf("%s tau=%d query %d: scan %v, sharded %v", stage, tau, qi, want, got)
				}
			}
		}
		for qi, q := range queries {
			want := bruteKNN(live, q, 7)
			got, err := sharded.SearchKNN(q, 7)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != len(got) {
				t.Fatalf("%s query %d: scan %d neighbours, sharded %d", stage, qi, len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s query %d neighbour %d: scan %v, sharded %v", stage, qi, i, want[i], got[i])
				}
			}
		}
	}

	check("initial")
	// Insert a batch, delete a mix of built and fresh ids.
	for _, v := range fresh.Vectors {
		id, err := sharded.Insert(v)
		if err != nil {
			t.Fatal(err)
		}
		live[id] = v
	}
	check("after inserts")
	ids := make([]int32, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for i := 0; i < 120; i++ {
		id := ids[rng.Intn(len(ids))]
		if _, ok := live[id]; !ok {
			continue
		}
		if err := sharded.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(live, id)
	}
	check("after deletes")
	if err := sharded.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, sh := range sharded.ShardStats() {
		if sh.Delta != 0 || sh.Tombstones != 0 {
			t.Fatalf("compact left buffers: %+v", sh)
		}
	}
	check("after compact")
	// A second round exercises compact-of-compacted state.
	for _, v := range fresh.Vectors[:40] {
		id, err := sharded.Insert(v.Clone())
		if err != nil {
			t.Fatal(err)
		}
		live[id] = v
	}
	if err := sharded.Compact(); err != nil {
		t.Fatal(err)
	}
	check("after second compact")
}

// TestEmptyAndEdgeCases covers the empty sharded index (legal, unlike
// an empty core index) and the query-contract errors.
func TestEmptyAndEdgeCases(t *testing.T) {
	s, err := New(2, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	q := bitvec.New(64)
	ids, err := s.Search(q, 5)
	if err != nil || len(ids) != 0 {
		t.Fatalf("empty search: %v %v", ids, err)
	}
	ns, err := s.SearchKNN(q, 3)
	if err != nil || len(ns) != 0 {
		t.Fatalf("empty kNN: %v %v", ns, err)
	}
	if _, err := s.SearchKNN(q, 0); !errors.Is(err, core.ErrInvalidQuery) {
		t.Fatalf("k=0 error: %v", err)
	}
	if _, err := s.Search(q, -1); !errors.Is(err, core.ErrInvalidQuery) {
		t.Fatalf("negative tau error: %v", err)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("empty compact: %v", err)
	}
	if err := s.Delete(0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete on empty: %v", err)
	}

	// First insert fixes the dimensionality.
	id, err := s.Insert(q.Clone())
	if err != nil || id != 0 {
		t.Fatalf("first insert: %d %v", id, err)
	}
	if s.Dims() != 64 {
		t.Fatalf("dims not adopted: %d", s.Dims())
	}
	if _, err := s.Insert(bitvec.New(32)); err == nil {
		t.Fatal("mismatched insert accepted")
	}
	if _, err := s.Search(bitvec.New(32), 1); !errors.Is(err, core.ErrInvalidQuery) {
		t.Fatalf("mismatched query error: %v", err)
	}
	// k beyond the live count clamps.
	ns, err = s.SearchKNN(q, 10)
	if err != nil || len(ns) != 1 || ns[0].ID != 0 || ns[0].Distance != 0 {
		t.Fatalf("clamped kNN: %v %v", ns, err)
	}
	// Delete from the delta buffer, then the id is gone.
	if err := s.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len after delete: %d", s.Len())
	}
	// Ids are never reused.
	id, err = s.Insert(q.Clone())
	if err != nil || id != 1 {
		t.Fatalf("id reuse: %d %v", id, err)
	}
}

// TestSearchBatchMatchesSequential mirrors the core SearchBatch
// contract at the sharded layer, including partial-failure joining.
func TestSearchBatchMatchesSequential(t *testing.T) {
	ds := dataset.FastTextLike(800, 5)
	s, err := Build(ds.Vectors, 3, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	queries := ds.Vectors[:12]
	// 267 rows a shard cost less to scan than a DP round: no shard binds.
	enginetest.FreeScan(t, s, queries[0], 12)
	batch, err := s.SearchBatch(queries, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want, err := s.Search(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(want, batch[i]) {
			t.Fatalf("batch result %d differs from sequential", i)
		}
	}
	// One bad query fails alone; siblings keep their results.
	bad := make([]bitvec.Vector, len(queries))
	copy(bad, queries)
	bad[3] = bitvec.New(7)
	batch, err = s.SearchBatch(bad, 6, 2)
	if !errors.Is(err, core.ErrInvalidQuery) {
		t.Fatalf("batch error: %v", err)
	}
	if batch[3] != nil {
		t.Fatal("failed query kept results")
	}
	if batch[0] == nil || batch[5] == nil {
		t.Fatal("sibling results discarded")
	}
}

// TestConcurrentSearchAndUpdate runs searches, inserts, deletes and
// compactions from many goroutines; under -race this asserts the
// locking discipline.
func TestConcurrentSearchAndUpdate(t *testing.T) {
	ds := dataset.SIFTLike(400, 9)
	s, err := Build(ds.Vectors[:300], 2, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	queries := dataset.PerturbQueries(ds, 4, 3, 13)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for _, q := range queries {
					if _, err := s.Search(q, 6); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, v := range ds.Vectors[300:] {
			id, err := s.Insert(v)
			if err != nil {
				t.Error(err)
				return
			}
			if i%3 == 0 {
				if err := s.Delete(id); err != nil {
					t.Error(err)
					return
				}
			}
			if i%25 == 0 {
				if err := s.Compact(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
}

// TestBoundedHeap cross-checks the kNN merge heap against a full
// sort over random neighbour sets.
func TestBoundedHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(60)
		k := 1 + rng.Intn(12)
		ns := make([]core.Neighbor, n)
		for i := range ns {
			ns[i] = core.Neighbor{ID: int32(rng.Intn(40)), Distance: rng.Intn(8)}
		}
		h := newBoundedHeap(k)
		for _, x := range ns {
			h.offer(x)
		}
		got := h.sorted()
		want := append([]core.Neighbor(nil), ns...)
		sort.Slice(want, func(a, b int) bool {
			if want[a].Distance != want[b].Distance {
				return want[a].Distance < want[b].Distance
			}
			return want[a].ID < want[b].ID
		})
		if len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d pos %d: got %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestRoutingDeterminism: content routing must not depend on load or
// order, so the same vector always lands on the same shard.
func TestRoutingDeterminism(t *testing.T) {
	s, _ := New(5, testOpts())
	ds := dataset.GISTLike(50, 21)
	for _, v := range ds.Vectors {
		a, b := s.route(v), s.route(v.Clone())
		if a != b {
			t.Fatalf("route unstable: %d vs %d", a, b)
		}
		if a < 0 || int(a) >= 5 {
			t.Fatalf("route out of range: %d", a)
		}
	}
}
