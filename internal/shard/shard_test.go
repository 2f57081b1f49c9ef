package shard

import (
	"errors"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gph/internal/bitvec"
	"gph/internal/core"
	"gph/internal/dataset"
	"gph/internal/engine"
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

// TestConcurrentSearchAndUpdate runs at once, over a mapped index with a
// WAL attached: searches, logged inserts and deletes, explicit and async
// compactions, SaveFile checkpoints, and a Close that lands midway. Under
// -race this asserts the locking discipline; the watchdog turns a
// deadlock (a lock taken twice, two taken in opposite orders) into a
// failure that prints every goroutine's stack.
func TestConcurrentSearchAndUpdate(t *testing.T) {
	ds := dataset.SIFTLike(400, 9)
	dir := t.TempDir()
	path := filepath.Join(dir, "index.gph")
	built, err := Build(ds.Vectors[:300], 2, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := built.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// No deferred Close: the workload closes the index, and after a hang
	// a deferred Close would wait on the deadlocked lock.
	s, err := OpenFile(path, engine.OpenMMap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenWAL(filepath.Join(dir, "index.wal")); err != nil {
		t.Fatal(err)
	}
	queries := dataset.PerturbQueries(ds, 4, 3, 13)
	// ok reports whether an operation succeeded; it may fail only once
	// Close has begun.
	var closing atomic.Bool
	ok := func(op string, err error) bool {
		if err != nil && !closing.Load() {
			t.Errorf("%s: %v", op, err)
		}
		return err == nil
	}
	halfway := make(chan struct{})
	var once sync.Once
	closeHalfway := func() { once.Do(func() { close(halfway) }) }
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for _, q := range queries {
					if _, err := s.Search(q, 6); err != nil && !errors.Is(err, engine.ErrIndexClosed) {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Add(3)
	go func() {
		defer wg.Done()
		defer closeHalfway()
		for i, v := range ds.Vectors[300:] {
			if i == 50 {
				closeHalfway()
			}
			id, err := s.Insert(v)
			if !ok("insert", err) || i%3 == 0 && !ok("delete", s.Delete(id)) || i%25 == 0 && !ok("compact", s.Compact()) {
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			s.CompactAsync()
			if !ok("checkpoint", s.SaveFile(filepath.Join(dir, "checkpoint.gph"))) {
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		<-halfway
		closing.Store(true)
		ok("close", s.Close())
	}()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		buf := make([]byte, 1<<20)
		t.Fatalf("the workload hung for a minute; goroutines:\n%s", buf[:runtime.Stack(buf, true)])
	}
	if refs := s.mapping.Refs(); refs != 0 {
		t.Fatalf("the closed mapping holds %d references", refs)
	}
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
