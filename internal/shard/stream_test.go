package shard

import (
	"errors"
	"testing"

	"gph/internal/bitvec"
	"gph/internal/core"
	"gph/internal/dataset"
	"gph/internal/engine"
	"gph/internal/engine/enginetest"
)

// drainStream collects a sharded stream, failing on any error.
func drainStream(t *testing.T, s *Index, q bitvec.Vector, tau int) ([]int32, []int) {
	t.Helper()
	var ids []int32
	var dists []int
	for nb, err := range s.SearchIter(q, tau) {
		if err != nil {
			t.Fatalf("stream error after %d results: %v", len(ids), err)
		}
		ids = append(ids, nb.ID)
		dists = append(dists, nb.Distance)
	}
	return ids, dists
}

// TestStreamMatchesSearch pins the k-way merge against Search, and
// Search against a scan of the live set, across the full update
// lifecycle: built-only, with delta inserts, with tombstones, and after
// compaction — the streamed id sequence must equal Search exactly at
// every stage, with true distances. The shards are large enough that
// small τ runs their index, so tombstones are filtered out of index
// results as well as out of scans.
func TestStreamMatchesSearch(t *testing.T) {
	// 3 000 rows a shard: the merge is fed by streams of verified index
	// candidates at τ ≤ 2 and by streamed scans past it.
	ds := dataset.SIFTLike(12000, 3)
	s, err := Build(ds.Vectors, 4, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	queries := dataset.PerturbQueries(ds, 6, 3, 55)
	enginetest.OnIndex(t, s, queries[0], 2)
	live := map[int32]bitvec.Vector{}
	for id, v := range ds.Vectors {
		live[int32(id)] = v
	}
	check := func(stage string) {
		t.Helper()
		for _, tau := range []int{0, 2, 6, 12} {
			for qi, q := range queries {
				want, err := s.Search(q, tau)
				if err != nil {
					t.Fatal(err)
				}
				if scan := bruteRange(live, q, tau); !equalIDs(want, scan) {
					t.Fatalf("%s tau=%d query %d: Search %v, the scan %v", stage, tau, qi, want, scan)
				}
				got, dists := drainStream(t, s, q, tau)
				if !equalIDs(got, want) {
					t.Fatalf("%s tau=%d query %d: stream %v, Search %v", stage, tau, qi, got, want)
				}
				for i, id := range got {
					v, ok := s.Vector(id)
					if !ok {
						t.Fatalf("%s: streamed id %d not live", stage, id)
					}
					if d := q.Hamming(v); d != dists[i] || d > tau {
						t.Fatalf("%s tau=%d id=%d: streamed distance %d, want %d", stage, tau, id, dists[i], d)
					}
				}
			}
		}
	}
	check("built")
	fresh := dataset.SIFTLike(200, 4)
	for _, v := range fresh.Vectors {
		id, err := s.Insert(v)
		if err != nil {
			t.Fatal(err)
		}
		live[id] = v
	}
	check("delta")
	for id := int32(0); id < 120; id += 3 {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(live, id)
	}
	check("tombstoned")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	check("compacted")
}

// TestStreamEarlyStopAndErrors pins the rest of the sequence
// contract at the sharded layer: early break leaves the index usable,
// and invalid queries yield exactly one wrapped error.
func TestStreamEarlyStopAndErrors(t *testing.T) {
	ds := dataset.GISTLike(300, 11)
	s, err := Build(ds.Vectors, 3, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Vectors[0]
	n := 0
	for _, err := range s.SearchIter(q, 16) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		break
	}
	if n != 1 {
		t.Fatalf("early stop consumed %d results", n)
	}
	want, err := s.Search(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := drainStream(t, s, q, 8)
	if !equalIDs(got, want) {
		t.Fatalf("after early stop: stream %v, Search %v", got, want)
	}
	for name, bad := range map[string]struct {
		q   bitvec.Vector
		tau int
	}{
		"negative-tau": {q, -1},
		"dim-mismatch": {bitvec.New(q.Dims() / 2), 3},
	} {
		entries := 0
		for _, err := range s.SearchIter(bad.q, bad.tau) {
			entries++
			if err == nil || !errors.Is(err, engine.ErrInvalidQuery) {
				t.Fatalf("%s: got %v, want wrapped ErrInvalidQuery", name, err)
			}
		}
		if entries != 1 {
			t.Fatalf("%s: %d entries, want exactly 1 error", name, entries)
		}
	}
}

// TestStreamEmptyIndex pins streaming over an index that has never
// seen a vector: no results, no error.
func TestStreamEmptyIndex(t *testing.T) {
	s, err := New(2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for nb, err := range s.SearchIter(bitvec.New(64), 4) {
		t.Fatalf("empty index streamed %v, %v", nb, err)
	}
}
