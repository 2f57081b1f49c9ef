package shard

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"gph/internal/bitvec"
	"gph/internal/core"
	"gph/internal/dataset"
	"gph/internal/engine"
	"gph/internal/plan"
)

// planOpts enables the planner and a result cache on top of the usual
// fast test options.
func planOpts() core.Options {
	o := testOpts()
	o.PlanMode = "adaptive"
	o.CacheBytes = 1 << 20
	return o
}

// TestPlannerConformance is the planner's exactness guarantee at the
// sharded layer, for every exact engine with a packed arena and under
// each -plan mode. With adaptive routing and the cache enabled, every
// workload bucket's results are byte-equal to the linear-scan oracle —
// on the cold pass (planner-routed) and the warm pass (cache hit)
// alike, for range queries and for kNN — and SearchStats says which
// pass was which. An engine that decides scan-or-index itself (gph,
// linscan) is never sent to the planner's scan, however often the
// planner is calibrated afresh, and answers each query by the route its
// bare shard engines choose; mih and hmsearch are, from their crossover
// tau up. "index" and "scan" force their route whatever the engine.
func TestPlannerConformance(t *testing.T) {
	// 4 000 rows a shard: gph runs index plans at τ = 0 and scans at 32,
	// so the verdicts compared below are of both kinds; 32 = dims/8 is
	// also the first radius the crossover probe tries.
	const numShards = 2
	opts := planOpts()
	opts.MaxTau = 32
	ds := dataset.UQVideoLike(8000, 3)
	live := make(map[int32]bitvec.Vector, len(ds.Vectors))
	for i, v := range ds.Vectors {
		live[int32(i)] = v
	}
	queries := dataset.PerturbQueries(ds, 8, 4, 17)
	taus := []int{0, 2, 32} // low / mid / high buckets
	want := make(map[int][][]int32, len(taus))
	for _, tau := range taus {
		for _, q := range queries {
			want[tau] = append(want[tau], bruteRange(live, q, tau))
		}
	}
	for _, name := range []string{"gph", "mih", "hmsearch", "linscan"} {
		t.Run(name, func(t *testing.T) {
			s, err := BuildEngine(name, ds.Vectors, numShards, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			reg, _ := engine.Lookup(name)

			// Adaptive, cache on, the planner configured afresh each round.
			for round := 0; round < 3; round++ {
				if err := s.ConfigurePlan("adaptive", 1<<20); err != nil {
					t.Fatal(err)
				}
				cold := int64(len(taus) * len(queries))
				scans := 0
				for _, tau := range taus {
					for qi, q := range queries {
						// The bare engines' verdict on the same shard data.
						bare := false
						for i := range s.shards {
							_, st, err := s.shards[i].Load().built.SearchStats(q, tau)
							if err != nil {
								t.Fatal(err)
							}
							bare = bare || st.Scanned
						}
						for pass := 0; pass < 2; pass++ {
							got, st, err := s.SearchStats(q, tau)
							if err != nil {
								t.Fatal(err)
							}
							if !equalIDs(want[tau][qi], got) {
								t.Fatalf("tau=%d query=%d pass=%d: got %d ids, want %d (planned path diverged from oracle)",
									tau, qi, pass, len(got), len(want[tau][qi]))
							}
							if st.CacheHit != (pass == 1) || st.Results != len(got) || st.Candidates < len(got) {
								t.Fatalf("tau=%d query=%d pass=%d: stats %+v for %d results", tau, qi, pass, st, len(got))
							}
							if pass == 0 && reg.SelfDeciding && st.Scanned != bare {
								t.Fatalf("tau=%d query=%d: scanned=%v through the planner, %v by the shard engines themselves", tau, qi, st.Scanned, bare)
							}
							if pass == 0 && st.Scanned {
								scans++
							}
						}
					}
				}
				// kNN through the cache: ids and distances both re-materialize.
				// (A τ-bounded engine's kNN is best-effort within its bound.)
				wantHits := cold
				if !reg.TauBounded {
					wantHits += int64(len(queries))
					for qi, q := range queries {
						wantNN := bruteKNN(live, q, 7)
						for pass := 0; pass < 2; pass++ {
							got, err := s.SearchKNN(q, 7)
							if err != nil {
								t.Fatal(err)
							}
							if !slices.Equal(got, wantNN) {
								t.Fatalf("kNN query=%d pass=%d: got %v, want %v", qi, pass, got, wantNN)
							}
						}
					}
				}
				ps, ok := s.PlanStats()
				if !ok || !ps.Calibrated {
					t.Fatalf("round %d: PlanStats %+v, %v with the planner configured", round, ps, ok)
				}
				if ps.RoutedIndex+ps.RoutedScan != cold*numShards {
					t.Errorf("round %d: %d + %d routes for %d cold queries over %d shards", round, ps.RoutedIndex, ps.RoutedScan, cold, numShards)
				}
				if reg.SelfDeciding && (ps.RoutedScan != 0 || ps.CrossoverTau != 0) {
					t.Errorf("round %d: the planner second-guessed %s: %+v", round, name, ps)
				}
				if !reg.SelfDeciding && (ps.CrossoverTau <= 0 || ps.RoutedScan == 0) {
					t.Errorf("round %d: %s has no cost guard and the planner never scanned for it: %+v", round, name, ps)
				}
				if name == "gph" && (scans == 0 || scans == int(cold)) {
					t.Errorf("round %d: %d of %d gph queries scanned; the fixture should hold both verdicts", round, scans, cold)
				}
				if ps.Cache.Hits != wantHits || ps.Cache.Misses != wantHits {
					t.Errorf("round %d: cache counters %+v, want %d hits (every second pass) and as many misses", round, ps.Cache, wantHits)
				}
				// Out-of-contract queries fail identically on every pass: only
				// valid queries are ever stored, so a hit cannot bypass validation.
				for pass := 0; pass < 2; pass++ {
					if _, err := s.Search(bitvec.New(s.Dims()+1), 3); !errors.Is(err, engine.ErrDimMismatch) {
						t.Errorf("pass %d: wrong-dims error = %v", pass, err)
					}
					if _, err := s.Search(queries[0], -1); !errors.Is(err, engine.ErrNegativeTau) {
						t.Errorf("pass %d: negative-tau error = %v", pass, err)
					}
				}
			}

			// The fixed routes, cache off: "scan" is the planner's scan on
			// every shard, "index" is the engine's own Search.
			for _, mode := range []string{"index", "scan"} {
				if err := s.ConfigurePlan(mode, 0); err != nil {
					t.Fatal(err)
				}
				for _, tau := range taus {
					for qi, q := range queries {
						got, st, err := s.SearchStats(q, tau)
						if err != nil {
							t.Fatal(err)
						}
						if !equalIDs(want[tau][qi], got) {
							t.Fatalf("-plan %s tau=%d query=%d: got %d ids, want %d", mode, tau, qi, len(got), len(want[tau][qi]))
						}
						if mode == "scan" && (!st.Scanned || st.Candidates != len(ds.Vectors)) {
							t.Fatalf("-plan scan tau=%d query=%d: stats %+v", tau, qi, st)
						}
					}
				}
				ps, _ := s.PlanStats()
				if wantScans := int64(len(taus) * len(queries) * numShards); mode == "scan" && (ps.RoutedScan != wantScans || ps.RoutedIndex != 0) {
					t.Errorf("-plan scan: %+v, want %d scans", ps, wantScans)
				}
				if mode == "index" && ps.RoutedScan != 0 {
					t.Errorf("-plan index: %+v", ps)
				}
			}

			// Planning and caching both off: nothing to report; unknown
			// policies are rejected.
			if err := s.ConfigurePlan("off", 0); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.PlanStats(); ok {
				t.Error("PlanStats ok with planner off and no cache")
			}
			if err := s.ConfigurePlan("bogus", 0); err == nil {
				t.Error("ConfigurePlan accepted an unknown mode")
			}
		})
	}
}

// TestCachedHitDoesNotAllocate pins the repeated-query fast path: a
// Search answered by the result cache returns the cached slice itself.
func TestCachedHitDoesNotAllocate(t *testing.T) {
	ds := dataset.UQVideoLike(300, 3)
	s, err := BuildEngine("linscan", ds.Vectors, 1, planOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	q := dataset.PerturbQueries(ds, 1, 4, 4)[0]
	if _, err := s.Search(q, 8); err != nil { // fill
		t.Fatal(err)
	}
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		out, err := s.Search(q, 8)
		if err != nil {
			panic(err)
		}
		sink += len(out)
	})
	if allocs != 0 {
		t.Errorf("cached hit allocates %v times per op, want 0", allocs)
	}
}

// TestCacheEpochInvalidation plants a deliberately poisoned cache
// entry at the current epoch — proving lookups really serve it — then
// shows one Insert's snapshot swap makes it unreachable: the next
// search recomputes against the new live set instead of serving the
// stale (now wrong) cached ids.
func TestCacheEpochInvalidation(t *testing.T) {
	ds := dataset.UQVideoLike(600, 5)
	s, err := Build(ds.Vectors, 2, planOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	q := dataset.PerturbQueries(ds, 1, 4, 23)[0]
	const tau = 8

	// Ground truth via the uncached path — Search would fill the real
	// entry first, and Put keeps the incumbent on a duplicate key.
	honest, err := s.searchUncached(q, tau, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Poison the entry the next lookup will consult.
	poisoned := []int32{-1, -2, -3}
	key := plan.Key{
		Hash:  plan.HashWords(q.Words(), uint64(q.Dims())),
		Epoch: s.Epoch(), Tau: tau, K: -1, Eng: s.engID,
	}
	s.cache.Put(key, poisoned, nil)
	got, err := s.Search(q, tau)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(got, poisoned) {
		t.Fatalf("planted entry not served: got %v — the epoch test proves nothing if lookups bypass the cache", got)
	}

	// One insert publishes a new snapshot and bumps the epoch; the
	// stale entry must never be served again.
	before := s.Epoch()
	id, err := s.Insert(q)
	if err != nil {
		t.Fatal(err)
	}
	if s.Epoch() <= before {
		t.Fatalf("Insert did not bump the epoch (%d -> %d)", before, s.Epoch())
	}
	got, err = s.Search(q, tau)
	if err != nil {
		t.Fatal(err)
	}
	if equalIDs(got, poisoned) {
		t.Fatal("pre-swap cached result served after the epoch bump")
	}
	want := append(append([]int32(nil), honest...), id)
	if !equalIDs(got, want) {
		t.Fatalf("post-swap search: got %v, want %v", got, want)
	}
}

// TestEpochMonotonic pins the epoch contract: every snapshot-swapping
// operation (Insert, Delete, Compact) strictly increases the
// index-wide epoch and the owning shard's Stats().Epoch.
func TestEpochMonotonic(t *testing.T) {
	ds := dataset.UQVideoLike(400, 9)
	s, err := Build(ds.Vectors, 2, planOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sum := func() uint64 {
		var n uint64
		for _, st := range s.ShardStats() {
			n += st.Epoch
		}
		return n
	}
	last, lastSum := s.Epoch(), sum()
	step := func(op string) {
		if e := s.Epoch(); e <= last {
			t.Fatalf("%s: index epoch not bumped (%d -> %d)", op, last, e)
		} else {
			last = e
		}
		if n := sum(); n <= lastSum {
			t.Fatalf("%s: no shard epoch bumped (%d -> %d)", op, lastSum, n)
		} else {
			lastSum = n
		}
	}
	if _, err := s.Insert(ds.Vectors[0]); err != nil {
		t.Fatal(err)
	}
	step("Insert")
	// Delete a built id (not the fresh delta insert) so the shard stays
	// dirty and Compact below has real folding to do.
	if err := s.Delete(0); err != nil {
		t.Fatal(err)
	}
	step("Delete")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	step("Compact")
}

// TestCacheUnderConcurrentChurn races cached searches against
// Insert/Delete/Compact and asserts every result matches the live set
// at some moment of the query's execution window — i.e. concurrent
// swaps never surface a pre-swap cached result as current state. Run
// under -race this also exercises the lock-free epoch/cache
// coordination.
func TestCacheUnderConcurrentChurn(t *testing.T) {
	ds := dataset.UQVideoLike(800, 11)
	base := 600
	s, err := Build(ds.Vectors[:base], 4, planOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	queries := dataset.PerturbQueries(ds, 4, 4, 31)
	const tau = 8

	// The churn set: vectors inserted and deleted concurrently. Results
	// for ids below base are stable; churned ids may or may not appear.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := ds.Vectors[base+i%(len(ds.Vectors)-base)]
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
			if i%20 == 0 {
				if err := s.Compact(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	stable := make([]map[int32]bool, len(queries))
	for qi, q := range queries {
		stable[qi] = make(map[int32]bool)
		for id := int32(0); id < int32(base); id++ {
			if q.HammingWithin(ds.Vectors[id], tau) {
				stable[qi][id] = true
			}
		}
	}
	for round := 0; round < 50; round++ {
		for qi, q := range queries {
			got, err := s.Search(q, tau)
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[int32]bool, len(got))
			for _, id := range got {
				seen[id] = true
				if id < int32(base) && !stable[qi][id] {
					t.Fatalf("round %d query %d: id %d outside tau returned", round, qi, id)
				}
			}
			for id := range stable[qi] {
				if !seen[id] {
					t.Fatalf("round %d query %d: stable id %d missing (stale cached result?)", round, qi, id)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}
