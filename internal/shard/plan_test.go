package shard

import (
	"errors"
	"io"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"gph/internal/binio"
	"gph/internal/bitvec"
	"gph/internal/core"
	"gph/internal/cpu"
	"gph/internal/dataset"
	"gph/internal/engine"
)

// TestPlannerConformance is exactness at the sharded layer, for every
// exact engine with a packed arena, on every route cpu.Force can put in
// force: the engines' own choice, the index and the scan. Every workload
// bucket's results are byte-equal to the linear-scan oracle, for range
// queries and for kNN, and a query is scanned exactly when the bare shard
// engines scan it under the same route: every query under the forced
// scan, and under the forced index only what the index cannot answer
// (linscan has no index; a ball no plan fits the enumeration budget of),
// which the log counts. (gph-server's suite holds its result cache's warm
// answers to these cold ones.)
func TestPlannerConformance(t *testing.T) {
	const numShards = 2
	opts := testOpts()
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
	cold := len(taus) * len(queries)
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
							got, st, err := s.SearchStats(q, tau)
							if err != nil {
								t.Fatal(err)
							}
							if !equalIDs(want[tau][qi], got) {
								t.Fatalf("route %s tau=%d query=%d: got %d ids, want %d (diverged from the oracle)",
									route, tau, qi, len(got), len(want[tau][qi]))
							}
							if st.Results != len(got) || st.Candidates < len(got) {
								t.Fatalf("route %s tau=%d query=%d: stats %+v for %d results", route, tau, qi, st, len(got))
							}
							if st.Scanned != bare || route == cpu.RouteScan && (!st.Scanned || st.Candidates != len(ds.Vectors)) {
								t.Fatalf("route %s tau=%d query=%d: scanned=%v through the index, %v by the shard engines themselves: %+v", route, tau, qi, st.Scanned, bare, st)
							}
							if st.Scanned {
								scans++
							}
						}
					}
					if route == cpu.RouteIndex && name != "linscan" && scans == cold {
						t.Errorf("route index: all %d cold %s queries scanned", cold, name)
					}
					t.Logf("%s under route %s: %d of %d cold queries scanned", name, route, scans, cold)
					// (A τ-bounded engine's kNN is best-effort within its bound.)
					if !reg.TauBounded {
						for qi, q := range queries {
							wantNN := bruteKNN(live, q, 7)
							if got, err := s.SearchKNN(q, 7); err != nil || !slices.Equal(got, wantNN) {
								t.Fatalf("route %s kNN query=%d: got %v (%v), want %v", route, qi, got, err, wantNN)
							}
						}
					}
					if _, err := s.Search(bitvec.New(s.Dims()+1), 3); !errors.Is(err, engine.ErrDimMismatch) {
						t.Errorf("wrong-dims error = %v", err)
					}
					if _, err := s.Search(queries[0], -1); !errors.Is(err, engine.ErrNegativeTau) {
						t.Errorf("negative-tau error = %v", err)
					}
				})
			}
			// The retired policies and unknown ones are refused by name, and
			// so is a result cache: the index has none.
			for _, mode := range []string{"scan", "index", "off", "bogus"} {
				if err := s.ConfigurePlan(mode, 0); err == nil || !strings.Contains(err.Error(), "want adaptive") {
					t.Errorf("ConfigurePlan(%q) = %v, want an error naming adaptive", mode, err)
				}
			}
			for _, mode := range []string{"", "adaptive"} {
				if err := s.ConfigurePlan(mode, 0); err != nil {
					t.Errorf("ConfigurePlan(%q, 0) = %v", mode, err)
				}
				if err := s.ConfigurePlan(mode, 1<<20); err == nil || !strings.Contains(err.Error(), "gph-server -cache-size") {
					t.Errorf("ConfigurePlan(%q, 1 MiB) = %v, want an error naming gph-server -cache-size", mode, err)
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
// building, saving, loading in both modes, updating and
// compacting a sharded index asks its engines no query.
func TestLifecycleRunsNoSearches(t *testing.T) {
	ds := dataset.UQVideoLike(1200, 7)
	countedSearches.Store(0) // the suites that run every registered engine have been here
	s, err := BuildEngine(countingName, ds.Vectors[:1000], 2, testOpts())
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
