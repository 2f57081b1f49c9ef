package shard

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"gph/internal/bitvec"
	"gph/internal/core"
	"gph/internal/dataset"
	"gph/internal/engine"
	"gph/internal/engine/enginetest"

	// Baseline engines the generalized shard layer is tested against.
	_ "gph/internal/hmsearch"
	_ "gph/internal/linscan"
	_ "gph/internal/lsh"
	_ "gph/internal/partalloc"
)

// TestShardedEngineMatchesSingle pins the decomposition for every
// registered engine on both sides of S = 1. One shard is the
// degenerate case, not a second path: it answers Search, SearchKNN,
// SearchIter and SearchBatch exactly like engine.Build over the same
// collection — LSH included (same data order, same seed) — and a GPH
// shard's nested blob is byte-equal to the bare engine's Save. Three
// shards must agree for the exact engines, since each shard is a
// complete index over its slice. Both keep agreeing through insert,
// delete and compact.
func TestShardedEngineMatchesSingle(t *testing.T) {
	small, large := dataset.Synthetic(600, 64, 0.3, 3), dataset.Synthetic(6000, 64, 0.3, 3)
	for _, info := range engine.Infos() {
		name, ds := info.Name, small
		if name == core.EngineName {
			// 2 000 rows a shard at S = 3: gph runs index plans at τ = 0 and
			// scans at 4 and 9 (matchesSingle says so); 200 would be scanned
			// at every τ.
			ds = large
		}
		queries := dataset.PerturbQueries(ds, 6, 3, 4)
		t.Run(name, func(t *testing.T) {
			single, err := engine.Build(name, ds.Vectors, engine.BuildOptions{NumPartitions: 4, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, numShards := range []int{1, 3} {
				if numShards > 1 && !info.Exact {
					continue // an approximate engine's misses depend on what shares its tables
				}
				t.Run(fmt.Sprintf("S=%d", numShards), func(t *testing.T) {
					matchesSingle(t, name, ds.Vectors, queries, single, numShards)
				})
			}
		})
	}
}

// matchesSingle is one (engine, shard count) cell of
// TestShardedEngineMatchesSingle.
func matchesSingle(t *testing.T, name string, data, queries []bitvec.Vector, single engine.Engine, numShards int) {
	s, err := BuildEngine(name, data, numShards, core.Options{NumPartitions: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Engine() != name {
		t.Fatalf("Engine() = %q, want %q", s.Engine(), name)
	}
	if numShards == 1 && name == core.EngineName {
		var want, got bytes.Buffer
		if err := single.Save(&want); err != nil {
			t.Fatal(err)
		}
		if err := s.shards[0].Load().built.Save(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("one-shard blob (%d bytes) differs from the bare engine's Save (%d bytes)", got.Len(), want.Len())
		}
	}
	if name == core.EngineName {
		enginetest.OnIndex(t, s, queries[0], 0)
	}
	for _, tau := range []int{0, 4, 9} {
		wantBatch, err := single.SearchBatch(queries, tau, 2)
		if err != nil {
			t.Fatal(err)
		}
		gotBatch, err := s.SearchBatch(queries, tau, 2)
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			want, err := single.Search(q, tau)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Search(q, tau)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("tau=%d: sharded %v, single %v", tau, got, want)
			}
			if !slices.Equal(gotBatch[qi], wantBatch[qi]) {
				t.Fatalf("tau=%d batch slot %d: sharded %v, single %v", tau, qi, gotBatch[qi], wantBatch[qi])
			}
			var wantIter, gotIter []core.Neighbor
			for nb, err := range engine.Stream(single, q, tau) {
				if err != nil {
					t.Fatal(err)
				}
				wantIter = append(wantIter, nb)
			}
			for nb, err := range s.SearchIter(q, tau) {
				if err != nil {
					t.Fatal(err)
				}
				gotIter = append(gotIter, nb)
			}
			if !slices.Equal(gotIter, wantIter) {
				t.Fatalf("tau=%d stream: sharded %v, single %v", tau, gotIter, wantIter)
			}
		}
	}
	for _, q := range queries {
		wantNN, err := single.SearchKNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		gotNN, err := s.SearchKNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotNN, wantNN) {
			t.Fatalf("kNN: sharded %+v, single %+v", gotNN, wantNN)
		}
	}

	// Mutate: insert a near-duplicate, delete a vector, compact, and
	// rebuild the single reference over the same live set. The sharded
	// layer preserves global ids across compact, so the reference's
	// dense ids are mapped back through the live id list.
	extra := data[5].Clone()
	extra.Flip(0)
	if _, err := s.Insert(extra); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(11); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	live := make([]bitvec.Vector, 0, len(data))
	liveIDs := make([]int32, 0, len(data))
	for id := 0; id <= len(data); id++ {
		if id == 11 {
			continue
		}
		if id == len(data) {
			live = append(live, extra)
		} else {
			live = append(live, data[id])
		}
		liveIDs = append(liveIDs, int32(id))
	}
	ref, err := engine.Build(name, live, engine.BuildOptions{NumPartitions: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		want, err := ref.Search(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		mapped := make([]int32, len(want))
		for i, lid := range want {
			mapped[i] = liveIDs[lid]
		}
		got, err := s.Search(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, mapped) {
			t.Fatalf("post-compact tau=6: sharded %v, reference %v", got, mapped)
		}
	}
}

// TestShardedEngineSaveLoad round-trips a sharded baseline engine
// container, checking the engine name survives and the restored index
// serializes byte-identically.
func TestShardedEngineSaveLoad(t *testing.T) {
	ds := dataset.Synthetic(300, 64, 0.3, 5)
	s, err := BuildEngine("mih", ds.Vectors, 3, core.Options{NumPartitions: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Leave an unindexed insert and a tombstone in the buffers so the
	// container persists them too.
	v := ds.Vectors[0].Clone()
	v.Flip(3)
	if _, err := s.Insert(v); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(7); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), buf.Bytes()...)
	s2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Engine() != "mih" {
		t.Fatalf("restored engine %q, want mih", s2.Engine())
	}
	q := ds.Vectors[0]
	want, err := s.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("restored search %v, original %v", got, want)
	}
	var buf2 bytes.Buffer
	if err := s2.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, buf2.Bytes()) {
		t.Fatal("save → load → save is not byte-identical")
	}
	// Compact after load must rebuild with the persisted engine.
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Search(q, 5); err != nil {
		t.Fatal(err)
	}
}

// TestShardedUnknownEngine: constructors reject unregistered names.
func TestShardedUnknownEngine(t *testing.T) {
	if _, err := NewEngine("nope", 2, core.Options{}); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := BuildEngine("nope", nil, 2, core.Options{}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// TestSearchKNNHugeK: k is remote-controlled through /knn, so a
// gigantic k must clamp to the live count instead of sizing buffers
// from it.
func TestSearchKNNHugeK(t *testing.T) {
	ds := dataset.Synthetic(50, 32, 0.3, 9)
	s, err := Build(ds.Vectors, 2, core.Options{NumPartitions: 2, MaxTau: 8, Seed: 1, SampleSize: 50, WorkloadSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	nns, err := s.SearchKNN(ds.Vectors[0], 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if len(nns) != 50 {
		t.Fatalf("got %d neighbours, want all 50", len(nns))
	}
}

// TestShardedTauBound: a sharded τ-bounded engine must reject
// over-threshold queries uniformly — including while vectors sit
// unindexed in delta buffers, where a naive implementation would scan
// them and answer (then reject the same query after Compact).
func TestShardedTauBound(t *testing.T) {
	ds := dataset.Synthetic(40, 32, 0.3, 11)
	s, err := NewEngine("hmsearch", 2, core.Options{MaxTau: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ds.Vectors {
		if _, err := s.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	q := ds.Vectors[0]
	if _, err := s.Search(q, 20); !errors.Is(err, engine.ErrTauExceedsBuild) {
		t.Fatalf("pre-compact tau=20 on MaxTau=8: %v", err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Search(q, 20); !errors.Is(err, engine.ErrTauExceedsBuild) {
		t.Fatalf("post-compact tau=20 on MaxTau=8: %v", err)
	}
	if ids, err := s.Search(q, 8); err != nil || len(ids) == 0 {
		t.Fatalf("tau=MaxTau must answer: %v, %v", ids, err)
	}
}

// TestShardedTauBoundKNN: for a τ-bounded engine, delta-buffered
// vectors beyond the bound must not appear in kNN results — the
// same vector would vanish after Compact otherwise.
func TestShardedTauBoundKNN(t *testing.T) {
	s, err := NewEngine("hmsearch", 2, core.Options{MaxTau: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	near := bitvec.New(32)
	near.Set(0) // distance 1 from the zero query
	far := bitvec.New(32)
	for i := 0; i < 20; i++ {
		far.Set(i) // distance 20 > MaxTau
	}
	if _, err := s.Insert(near); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(far); err != nil {
		t.Fatal(err)
	}
	q := bitvec.New(32)
	check := func(stage string) {
		t.Helper()
		nns, err := s.SearchKNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(nns) != 1 || nns[0].ID != 0 {
			t.Fatalf("%s: got %v, want only the near vector (id 0)", stage, nns)
		}
	}
	check("pre-compact")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	check("post-compact")
}
