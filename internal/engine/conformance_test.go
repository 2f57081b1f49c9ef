// Package engine_test holds the engine conformance suite: one
// table-driven set of contract checks run against every registered
// engine, with the linear scan as ground-truth oracle. A new backend
// that registers itself is covered by adding its import below —
// nothing else.
package engine_test

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"gph/internal/bitvec"
	"gph/internal/dataset"
	"gph/internal/engine"
	"gph/internal/engine/enginetest"
	"gph/internal/linscan"

	// Register every engine implementation with the registry.
	_ "gph/internal/core"
	_ "gph/internal/hmsearch"
	_ "gph/internal/lsh"
	_ "gph/internal/partalloc"
)

const (
	confDims = 32
	confSeed = 7
)

// confData builds the shared conformance fixture: a small synthetic
// collection, a query set with planted near-duplicates, and the
// linscan oracle. 6 000 rows, so that gph, which scans whatever a scan
// answers sooner, runs its index at the smallest thresholds (one-word
// rows: a scan is 750 key-scan steps where the kernel runs, 6 000 where
// it does not; TestConformanceRangeSearch says which τ take which route).
func confData(t *testing.T) ([]bitvec.Vector, []bitvec.Vector, *linscan.Scanner) {
	t.Helper()
	ds := dataset.Synthetic(6000, confDims, 0.3, confSeed)
	queries := dataset.PerturbQueries(ds, 8, 3, confSeed+1)
	// Exact-duplicate queries exercise tau=0 with non-empty results.
	queries = append(queries, ds.Vectors[0], ds.Vectors[17])
	oracle, err := linscan.New(ds.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Vectors, queries, oracle
}

// confBuild builds one registered engine over data with the
// conformance options: MaxTau = dims so τ-bounded engines accept the
// full threshold range the suite sweeps.
func confBuild(t *testing.T, name string, data []bitvec.Vector) engine.Engine {
	t.Helper()
	e, err := engine.Build(name, data, engine.BuildOptions{
		NumPartitions: 4, MaxTau: confDims, Seed: confSeed,
	})
	if err != nil {
		t.Fatalf("building %s: %v", name, err)
	}
	return e
}

// exactEngines returns the registered engines with Exact() == true.
func exactEngines() []string {
	var out []string
	for _, info := range engine.Infos() {
		if info.Exact {
			out = append(out, info.Name)
		}
	}
	return out
}

// allOnes is a query deterministically far from the skewed synthetic
// collection; the suite verifies with the oracle that it has no
// results at tau=0.
func allOnes() bitvec.Vector {
	v := bitvec.New(confDims)
	for i := 0; i < confDims; i++ {
		v.Set(i)
	}
	return v
}

// TestConformanceRangeSearch checks every exact engine against the
// oracle across the threshold sweep, including tau=0, tau=dims (full
// ball) and a guaranteed-empty result set.
func TestConformanceRangeSearch(t *testing.T) {
	data, queries, oracle := confData(t)
	far := allOnes()
	if ids, _ := oracle.Search(far, 0); len(ids) != 0 {
		t.Fatal("fixture broken: all-ones query has exact matches")
	}
	taus := []int{0, 1, 3, 8, confDims}
	for _, name := range exactEngines() {
		t.Run(name, func(t *testing.T) {
			e := confBuild(t, name, data)
			if e.Len() != len(data) || e.Dims() != confDims {
				t.Fatalf("metadata: Len=%d Dims=%d, want %d/%d", e.Len(), e.Dims(), len(data), confDims)
			}
			if name == "gph" {
				// The sweep below crosses gph's guard: index plans at the
				// smallest τ, the scan from τ = 3 or 8 (by the scan's price on
				// this host) on.
				enginetest.OnIndex(t, e, queries[0], 0)
				enginetest.OnIndex(t, e, queries[0], 1)
			}
			for _, q := range queries {
				for _, tau := range taus {
					want, err := oracle.Search(q, tau)
					if err != nil {
						t.Fatal(err)
					}
					got, err := e.Search(q, tau)
					if err != nil {
						t.Fatalf("tau=%d: %v", tau, err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("tau=%d: got %d ids, oracle %d (got=%v want=%v)", tau, len(got), len(want), got, want)
					}
				}
			}
			// tau=dims covers the whole space.
			if got, _ := e.Search(queries[0], confDims); len(got) != len(data) {
				t.Fatalf("tau=dims returned %d of %d", len(got), len(data))
			}
			// Empty result set.
			if got, err := e.Search(far, 0); err != nil || len(got) != 0 {
				t.Fatalf("far query: got %v, %v", got, err)
			}
		})
	}
}

// TestConformanceSingleVector checks the degenerate one-vector index.
func TestConformanceSingleVector(t *testing.T) {
	data, _, _ := confData(t)
	single := data[:1]
	for _, name := range exactEngines() {
		t.Run(name, func(t *testing.T) {
			e := confBuild(t, name, single)
			if name == "gph" {
				enginetest.FreeScan(t, e, single[0], 0) // one row costs less than binding a query
			}
			got, err := e.Search(single[0], 0)
			if err != nil || !slices.Equal(got, []int32{0}) {
				t.Fatalf("self search: %v, %v", got, err)
			}
			nns, err := e.SearchKNN(single[0], 5) // k > Len clamps to 1
			if err != nil || len(nns) != 1 || nns[0].ID != 0 || nns[0].Distance != 0 {
				t.Fatalf("kNN on single vector: %v, %v", nns, err)
			}
		})
	}
}

// TestConformanceKNN checks kNN against the oracle's independent
// direct-selection implementation, including ties at the k-th
// position (resolved by ascending id).
func TestConformanceKNN(t *testing.T) {
	data, queries, oracle := confData(t)
	for _, name := range exactEngines() {
		t.Run(name, func(t *testing.T) {
			e := confBuild(t, name, data)
			for _, q := range queries {
				for _, k := range []int{1, 3, 10, len(data) + 5} {
					want, err := oracle.SearchKNN(q, k)
					if err != nil {
						t.Fatal(err)
					}
					got, err := e.SearchKNN(q, k)
					if err != nil {
						t.Fatalf("k=%d: %v", k, err)
					}
					if len(got) != len(want) {
						t.Fatalf("k=%d: %d neighbours, oracle %d", k, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("k=%d neighbour %d: got %+v, oracle %+v", k, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestConformanceKNNTies pins the tie-at-k-th contract on a
// handcrafted collection where several vectors share the k-th
// distance: the lower ids win.
func TestConformanceKNNTies(t *testing.T) {
	mk := func(bits ...int) bitvec.Vector {
		v := bitvec.New(confDims)
		for _, b := range bits {
			v.Set(b)
		}
		return v
	}
	// Distances from the zero query: id0 → 0, ids 1..4 → 1, id5 → 2.
	data := []bitvec.Vector{mk(), mk(0), mk(1), mk(2), mk(3), mk(4, 5)}
	q := mk()
	for _, name := range exactEngines() {
		t.Run(name, func(t *testing.T) {
			e := confBuild(t, name, data)
			got, err := e.SearchKNN(q, 3)
			if err != nil {
				t.Fatal(err)
			}
			want := []engine.Neighbor{
				{ID: 0, Distance: 0}, {ID: 1, Distance: 1}, {ID: 2, Distance: 1},
			}
			if len(got) != len(want) {
				t.Fatalf("got %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("neighbour %d: got %+v, want %+v (ties must break by id)", i, got[i], want[i])
				}
			}
		})
	}
}

// TestConformanceBatch checks SearchBatch against sequential Search
// for every registered engine (including the approximate one — batch
// must equal its own sequential answers, whatever they are).
func TestConformanceBatch(t *testing.T) {
	data, queries, _ := confData(t)
	for _, info := range engine.Infos() {
		t.Run(info.Name, func(t *testing.T) {
			e := confBuild(t, info.Name, data)
			const tau = 5
			batch, err := e.SearchBatch(queries, tau, 3)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) != len(queries) {
				t.Fatalf("batch has %d slots for %d queries", len(batch), len(queries))
			}
			for i, q := range queries {
				want, err := e.Search(q, tau)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(batch[i], want) {
					t.Fatalf("query %d: batch %v, sequential %v", i, batch[i], want)
				}
			}
		})
	}
}

// TestConformanceSaveLoad round-trips every registered engine through
// Save → LoadAny and checks the restored engine answers identically
// and serializes byte-identically.
func TestConformanceSaveLoad(t *testing.T) {
	data, queries, _ := confData(t)
	for _, info := range engine.Infos() {
		t.Run(info.Name, func(t *testing.T) {
			e := confBuild(t, info.Name, data)
			var buf bytes.Buffer
			if err := e.Save(&buf); err != nil {
				t.Fatal(err)
			}
			saved := append([]byte(nil), buf.Bytes()...)
			e2, err := engine.LoadAny(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if e2.Name() != info.Name || e2.Exact() != info.Exact {
				t.Fatalf("restored metadata %s/%v, want %s/%v", e2.Name(), e2.Exact(), info.Name, info.Exact)
			}
			if e2.Len() != e.Len() || e2.Dims() != e.Dims() || e2.MaxTau() != e.MaxTau() {
				t.Fatalf("restored shape %d×%d maxτ=%d, want %d×%d maxτ=%d",
					e2.Len(), e2.Dims(), e2.MaxTau(), e.Len(), e.Dims(), e.MaxTau())
			}
			for _, q := range queries {
				for _, tau := range []int{0, 4, 9} {
					want, err := e.Search(q, tau)
					if err != nil {
						t.Fatal(err)
					}
					got, err := e2.Search(q, tau)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("tau=%d: restored %v, original %v", tau, got, want)
					}
				}
			}
			var buf2 bytes.Buffer
			if err := e2.Save(&buf2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saved, buf2.Bytes()) {
				t.Fatal("save → load → save is not byte-identical")
			}
		})
	}
}

// TestConformanceErrors checks the unified query-validation contract:
// every engine reports the shared sentinels, all wrapping
// ErrInvalidQuery, from every query entry point — as built, and as
// reopened from its file on the heap and mapped.
func TestConformanceErrors(t *testing.T) {
	data, _, _ := confData(t)
	for _, info := range engine.Infos() {
		t.Run(info.Name, func(t *testing.T) {
			reg, _ := engine.Lookup(info.Name)
			e := confBuild(t, info.Name, data)
			checkQueryErrors(t, "built", e, data[0], reg.TauBounded)
			path := writeEngineFile(t, e)
			for _, mode := range []engine.OpenMode{engine.OpenHeap, engine.OpenMMap} {
				opened, err := engine.Open(path, mode)
				if err != nil {
					t.Fatalf("%v open: %v", mode, err)
				}
				checkQueryErrors(t, mode.String(), opened, data[0], reg.TauBounded)
				opened.Close()
			}
		})
	}
}

// checkQueryErrors feeds every query entry point of e an input the
// caller got wrong. Each must fail with an error wrapping the case's
// sentinel and, through it, ErrInvalidQuery: that is what servers
// answer with 400 rather than 500.
func checkQueryErrors(t *testing.T, how string, e engine.Engine, q bitvec.Vector, tauBounded bool) {
	t.Helper()
	short := bitvec.New(e.Dims() / 2)
	search := func(q bitvec.Vector, tau int) error { _, err := e.Search(q, tau); return err }
	stats := func(q bitvec.Vector, tau int) error { _, _, err := e.SearchStats(q, tau); return err }
	knn := func(q bitvec.Vector, k int) error { _, err := e.SearchKNN(q, k); return err }
	batch := func(qs []bitvec.Vector, tau int) error { _, err := e.SearchBatch(qs, tau, 2); return err }
	stream := func(q bitvec.Vector, tau int) error {
		for _, err := range engine.Stream(e, q, tau) {
			if err != nil {
				return err
			}
		}
		return nil
	}
	type errCase struct {
		what      string
		want, err error
	}
	cases := []errCase{
		{"Search, dim mismatch", engine.ErrDimMismatch, search(short, 3)},
		{"Search, τ = -1", engine.ErrNegativeTau, search(q, -1)},
		{"SearchStats, dim mismatch", engine.ErrDimMismatch, stats(short, 3)},
		{"SearchStats, τ = -1", engine.ErrNegativeTau, stats(q, -1)},
		{"SearchKNN, dim mismatch", engine.ErrDimMismatch, knn(short, 3)},
		{"SearchKNN, k = 0", engine.ErrInvalidQuery, knn(q, 0)},
		{"SearchBatch, one query's dim mismatch", engine.ErrDimMismatch, batch([]bitvec.Vector{q, short, q}, 3)},
		{"SearchBatch, τ = -1", engine.ErrNegativeTau, batch([]bitvec.Vector{q, q}, -1)},
		{"Stream, dim mismatch", engine.ErrDimMismatch, stream(short, 3)},
	}
	if tauBounded {
		over := e.MaxTau() + 1
		cases = append(cases,
			errCase{"Search, τ = MaxTau+1", engine.ErrTauExceedsBuild, search(q, over)},
			errCase{"SearchStats, τ = MaxTau+1", engine.ErrTauExceedsBuild, stats(q, over)},
			errCase{"SearchBatch, τ = MaxTau+1", engine.ErrTauExceedsBuild, batch([]bitvec.Vector{q, q}, over)})
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.want) || !errors.Is(c.err, engine.ErrInvalidQuery) {
			t.Errorf("%s, %s: error %v, want one wrapping %v", how, c.what, c.err, c.want)
		}
	}
}

// TestConformanceBuildRejections: a collection no engine can be built
// over is refused by every engine's constructor with an error a caller
// can match — its sentinel, and through it ErrInvalidQuery — under the
// engine's own package prefix.
func TestConformanceBuildRejections(t *testing.T) {
	data, _, _ := confData(t)
	mixed := append(slices.Clone(data[:8]), bitvec.New(confDims+1))
	for _, info := range engine.Infos() {
		reg, _ := engine.Lookup(info.Name)
		for _, c := range []struct {
			what     string
			data     []bitvec.Vector
			maxTau   int
			sentinel error
			applies  bool
		}{
			{"empty collection", nil, confDims, engine.ErrInvalidQuery, true},
			{"mixed dims", mixed, confDims, engine.ErrDimMismatch, true},
			// Past WithDefaults, which engine.Build would apply: the
			// constructors' own check.
			{"negative build τ", data[:8], -1, engine.ErrTauExceedsBuild, reg.TauBounded},
		} {
			if !c.applies {
				continue
			}
			_, err := reg.Build(c.data, engine.BuildOptions{MaxTau: c.maxTau, Seed: confSeed})
			if !errors.Is(err, c.sentinel) || !errors.Is(err, engine.ErrInvalidQuery) {
				t.Errorf("%s, %s: error %v, want one wrapping %v", info.Name, c.what, err, c.sentinel)
			}
		}
	}
}

// TestTauBoundedEngines pins ErrTauExceedsBuild on the τ-bounded
// engines built with a small MaxTau.
func TestTauBoundedEngines(t *testing.T) {
	data, _, _ := confData(t)
	for _, name := range []string{"hmsearch", "partalloc", "lsh"} {
		t.Run(name, func(t *testing.T) {
			e, err := engine.Build(name, data, engine.BuildOptions{MaxTau: 6, Seed: confSeed})
			if err != nil {
				t.Fatal(err)
			}
			if e.MaxTau() != 6 {
				t.Fatalf("MaxTau %d, want 6", e.MaxTau())
			}
			if _, err := e.Search(data[0], 7); !errors.Is(err, engine.ErrTauExceedsBuild) {
				t.Fatalf("tau=7 on MaxTau=6: %v", err)
			}
			if _, err := e.Search(data[0], 6); err != nil {
				t.Fatalf("tau=MaxTau must be accepted: %v", err)
			}
		})
	}
}

// TestLSHSubsetOfOracle checks the approximate engine's one-sided
// guarantee: no false positives (results always verify), results are
// a subset of the oracle's.
func TestLSHSubsetOfOracle(t *testing.T) {
	data, queries, oracle := confData(t)
	e, err := engine.Build("lsh", data, engine.BuildOptions{MaxTau: 8, Seed: confSeed})
	if err != nil {
		t.Fatal(err)
	}
	if e.Exact() {
		t.Fatal("lsh must register as approximate")
	}
	for _, q := range queries {
		want, _ := oracle.Search(q, 8)
		truth := make(map[int32]bool, len(want))
		for _, id := range want {
			truth[id] = true
		}
		got, err := e.Search(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range got {
			if !truth[id] {
				t.Fatalf("false positive %d", id)
			}
		}
	}
}

// TestRegistry checks the registry surface: every expected engine is
// listed, unknown names and magics fail with useful errors.
func TestRegistry(t *testing.T) {
	names := engine.Names()
	for _, want := range []string{"gph", "mih", "hmsearch", "partalloc", "linscan", "lsh"} {
		if !slices.Contains(names, want) {
			t.Fatalf("engine %q not registered (have %v)", want, names)
		}
	}
	if _, err := engine.Build("nope", nil, engine.BuildOptions{}); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := engine.LoadAny(bytes.NewReader([]byte("BOGUS99\n--------"))); err == nil {
		t.Fatal("unknown magic accepted")
	}
}
