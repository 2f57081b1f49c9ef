package shard

import (
	"errors"
	"io"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gph/internal/binio"
	"gph/internal/bitvec"
	"gph/internal/core"
	"gph/internal/cpu"
	"gph/internal/dataset"
	"gph/internal/engine"
)

// planOpts enables a result cache on top of the usual fast test options.
func planOpts() core.Options {
	o := testOpts()
	o.CacheBytes = 1 << 20
	return o
}

// TestPlannerConformance is exactness through the result cache at the
// sharded layer, for every exact engine with a packed arena, on every
// route cpu.Force can put in force: the engines' own choice, the index
// and the scan. With the cache enabled, every workload bucket's results
// are byte-equal to the linear-scan oracle — on the cold pass and the
// warm pass (cache hit) alike, for range queries and for kNN — and
// SearchStats says which pass was which. A cold query is scanned exactly
// when the bare shard engines scan it under the same route: every query
// under the forced scan, and under the forced index only what the index
// cannot answer (linscan has no index; a ball no plan fits the
// enumeration budget of), which the log counts.
func TestPlannerConformance(t *testing.T) {
	const numShards = 2
	opts := planOpts()
	opts.MaxTau = 32
	opts.EnumBudget = 1 << 13 // keeps a forced index route's kNN growth small
	ds := dataset.UQVideoLike(2000, 3)
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
	cold := int64(len(taus) * len(queries))
	for _, name := range []string{"gph", "mih", "hmsearch", "linscan"} {
		t.Run(name, func(t *testing.T) {
			s, err := BuildEngine(name, ds.Vectors, numShards, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			reg, _ := engine.Lookup(name)
			for _, route := range []cpu.Route{cpu.RouteAdaptive, cpu.RouteIndex, cpu.RouteScan} {
				t.Run(route.String(), func(t *testing.T) {
					t.Cleanup(cpu.Force(cpu.Setting{Route: route}))
					s.ConfigurePlan("adaptive", 1<<20) // a fresh cache
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
									t.Fatalf("route %s tau=%d query=%d pass=%d: got %d ids, want %d (diverged from the oracle)",
										route, tau, qi, pass, len(got), len(want[tau][qi]))
								}
								if st.CacheHit != (pass == 1) || st.Results != len(got) || st.Candidates < len(got) {
									t.Fatalf("route %s tau=%d query=%d pass=%d: stats %+v for %d results", route, tau, qi, pass, st, len(got))
								}
								if pass == 1 {
									continue
								}
								if st.Scanned != bare || route == cpu.RouteScan && (!st.Scanned || st.Candidates != len(ds.Vectors)) {
									t.Fatalf("route %s tau=%d query=%d: scanned=%v through the index, %v by the shard engines themselves: %+v", route, tau, qi, st.Scanned, bare, st)
								}
								if st.Scanned {
									scans++
								}
							}
						}
					}
					if route == cpu.RouteIndex && name != "linscan" && scans == int(cold) {
						t.Errorf("route index: all %d cold %s queries scanned", cold, name)
					}
					t.Logf("%s under route %s: %d of %d cold queries scanned", name, route, scans, cold)
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
									t.Fatalf("route %s kNN query=%d pass=%d: got %v, want %v", route, qi, pass, got, wantNN)
								}
							}
						}
					}
					if ps := s.PlanStats(); ps.Cache.Hits != wantHits || ps.Cache.Misses != wantHits {
						t.Errorf("route %s: cache counters %+v, want %d hits (every second pass) and as many misses", route, ps.Cache, wantHits)
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
				})
			}
			// The retired policies and unknown ones are refused by name.
			for _, mode := range []string{"scan", "index", "off", "bogus"} {
				if err := s.ConfigurePlan(mode, 0); err == nil || !strings.Contains(err.Error(), "want adaptive") {
					t.Errorf("ConfigurePlan(%q) = %v, want an error naming adaptive", mode, err)
				}
			}
		})
	}
}

// countedSearches is how often any countingEngine answered a query.
var countedSearches atomic.Int64

// countingEngine is MIH with every query counted, registered under a
// name and magic of its own so that a container of them loads.
type countingEngine struct{ engine.Engine }

const countingName, countingMagic = "shardtest-counting", "SHTCNT01"

func (c countingEngine) Name() string { return countingName }

func (c countingEngine) Search(q bitvec.Vector, tau int) ([]int32, error) {
	countedSearches.Add(1)
	return c.Engine.Search(q, tau)
}

func (c countingEngine) SearchStats(q bitvec.Vector, tau int) ([]int32, *engine.Stats, error) {
	countedSearches.Add(1)
	return c.Engine.SearchStats(q, tau)
}

func (c countingEngine) SearchKNN(q bitvec.Vector, k int) ([]engine.Neighbor, error) {
	countedSearches.Add(1)
	return c.Engine.SearchKNN(q, k)
}

func (c countingEngine) SearchBatch(queries []bitvec.Vector, tau int, parallelism int) ([][]int32, error) {
	countedSearches.Add(1)
	return c.Engine.SearchBatch(queries, tau, parallelism)
}

func (c countingEngine) Save(w io.Writer) error {
	if _, err := io.WriteString(w, countingMagic); err != nil {
		return err
	}
	return c.Engine.Save(w)
}

func init() {
	engine.Register(engine.Registration{
		Name:  countingName,
		Exact: true,
		Magic: countingMagic,
		Build: func(data []bitvec.Vector, opts engine.BuildOptions) (engine.Engine, error) {
			e, err := engine.Build(core.MIHEngineName, data, opts)
			return countingEngine{e}, err
		},
		Load: func(r io.Reader) (engine.Engine, error) {
			br := binio.NewReader(r)
			if br.Magic(countingMagic); br.Err() != nil {
				return nil, br.Err()
			}
			e, err := engine.LoadAny(r)
			return countingEngine{e}, err
		},
	})
}

// TestLifecycleRunsNoSearches: nothing times or probes an engine —
// building, configuring, saving, loading in both modes, updating and
// compacting a sharded index asks its engines no query.
func TestLifecycleRunsNoSearches(t *testing.T) {
	ds := dataset.UQVideoLike(1200, 7)
	countedSearches.Store(0) // the suites that run every registered engine have been here
	s, err := BuildEngine(countingName, ds.Vectors[:1000], 2, planOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	path := filepath.Join(t.TempDir(), "counting.idx")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []engine.OpenMode{engine.OpenHeap, engine.OpenMMap} {
		loaded, err := OpenFile(path, mode)
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.ConfigurePlan("adaptive", 1<<20); err != nil {
			t.Fatal(err)
		}
		for _, v := range ds.Vectors[1000:] {
			if _, err := loaded.Insert(v); err != nil {
				t.Fatal(err)
			}
		}
		if err := loaded.Delete(3); err != nil {
			t.Fatal(err)
		}
		if err := loaded.Compact(); err != nil {
			t.Fatal(err)
		}
		if n := countedSearches.Load(); n != 0 {
			t.Fatalf("open mode %v: %d searches before the first query", mode, n)
		}
		if err := loaded.ConfigurePlan("adaptive", 0); err != nil {
			t.Fatal(err)
		}
		if _, err := loaded.Search(ds.Vectors[0], 2); err != nil {
			t.Fatal(err)
		}
		if n := countedSearches.Swap(0); n != int64(loaded.NumShards()) {
			t.Fatalf("open mode %v: one query over %d shards counted %d searches", mode, loaded.NumShards(), n)
		}
		if err := loaded.Close(); err != nil {
			t.Fatal(err)
		}
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
