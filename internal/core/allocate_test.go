package core

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"gph/internal/alloc"
	"gph/internal/binio"
	"gph/internal/bitvec"
	"gph/internal/dataset"
	"gph/internal/mmapio"
)

// lazyAllocate runs the query path's allocation and copies the
// threshold vector out of the scratch.
func lazyAllocate(ix *Index, q bitvec.Vector, tau int) (res alloc.Result, rounds, scans int) {
	s := ix.getScratch()
	res = ix.allocate(q, tau, s)
	res.Thresholds = slices.Clone(res.Thresholds)
	rounds, scans = s.rounds, s.scans
	ix.putScratch(s)
	return res, rounds, scans
}

// openModes returns ix as built, as loaded from its saved bytes into
// the heap, and as opened in borrow mode over a file mapping (content
// validation deferred to the first query, as gph-server -mmap does).
func openModes(t *testing.T, ix *Index) map[string]*Index {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.gph")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := mmapio.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	mapped, err := Load(binio.NewSource(m.Data()))
	if err != nil {
		t.Fatal(err)
	}
	if err := mapped.ensureValidated(); err != nil {
		t.Fatal(err)
	}
	return map[string]*Index{"built": ix, "loaded": loaded, "mapped": mapped}
}

// TestLazyAllocateMatchesEager is the exactness property of the lazy
// allocation: on the fully estimated table (EstimateTable, every cell
// of every row) the DP returns the very result the query path reaches
// by refining only the cells it picks — thresholds, objective, SumCN,
// budget and fallback — for skewed and unskewed corpora, stored and
// perturbed queries, every way of opening an index, and every τ from 0
// until the scan guard has taken over.
func TestLazyAllocateMatchesEager(t *testing.T) {
	corpora := map[string]*dataset.Dataset{
		"uqvideo": dataset.UQVideoLike(1200, 11),
		"sift":    dataset.SIFTLike(1200, 12),
	}
	for name, ds := range corpora {
		built := buildSmall(t, ds.Vectors, Options{Seed: 5})
		queries := append([]bitvec.Vector{ds.Vectors[0], ds.Vectors[17], ds.Vectors[600]},
			dataset.PerturbQueries(ds, 5, 6, 21)...)
		for mode, ix := range openModes(t, built) {
			params := alloc.Params{Widths: ix.parts.Widths(), EnumBudget: ix.opts.EnumBudget}
			scanCost := int64(ix.count) * 4
			guarded, lazyRows := 0, 0
			for tau := 0; tau < ix.dims && guarded < 3*len(queries); tau++ {
				params.Tau = tau
				for qi, q := range queries {
					got, rounds, scans := lazyAllocate(ix, q, tau)
					want := alloc.Allocate(ix.EstimateTable(q, tau), params)
					if got.Objective != want.Objective || got.SumCN != want.SumCN ||
						got.Fallback != want.Fallback || got.EffectiveBudget != want.EffectiveBudget ||
						!slices.Equal(got.Thresholds, want.Thresholds) {
						t.Fatalf("%s/%s tau=%d query %d: lazy %+v, eager %+v", name, mode, tau, qi, got, want)
					}
					if !got.Fallback {
						if err := alloc.CheckVector(got.Thresholds, tau); err != nil {
							t.Fatalf("%s/%s tau=%d query %d: %v", name, mode, tau, qi, err)
						}
					}
					if rounds < 1 || scans > len(ix.ests) {
						t.Fatalf("%s/%s tau=%d query %d: %d rounds, %d scans over %d partitions", name, mode, tau, qi, rounds, scans, len(ix.ests))
					}
					if scans < len(ix.ests) {
						lazyRows++
					}
					if got.Fallback || got.Objective > scanCost {
						guarded++
					}
				}
			}
			if guarded < 3*len(queries) {
				t.Fatalf("%s/%s: the scan guard took over for %d allocations; the sweep should end past the crossover", name, mode, guarded)
			}
			if lazyRows == 0 {
				t.Fatalf("%s/%s: every allocation scanned every partition; the lazy path was not exercised", name, mode)
			}
		}
	}
}

// TestWholeRowEstimatorsSettleInOneRound: estimators that cannot
// extend a row radius by radius hand over whole rows, so the lazy loop
// is the eager DP for them — one round, every row estimated in full,
// and the same result as the DP over EstimateTable.
func TestWholeRowEstimatorsSettleInOneRound(t *testing.T) {
	data := testData(t, 400, 31)
	for _, est := range []EstimatorKind{EstimatorSubPartition, EstimatorForest} {
		ix := buildSmall(t, data, Options{NumPartitions: 4, Estimator: est, Seed: 2})
		params := alloc.Params{Widths: ix.parts.Widths(), EnumBudget: ix.opts.EnumBudget}
		for _, tau := range []int{0, 3, 7, 12} {
			params.Tau = tau
			got, rounds, scans := lazyAllocate(ix, data[9], tau)
			if rounds != 1 || scans != len(ix.ests) {
				t.Fatalf("%v tau=%d: %d rounds, %d full rows; want 1 and %d", est, tau, rounds, scans, len(ix.ests))
			}
			want := alloc.Allocate(ix.EstimateTable(data[9], tau), params)
			if got.Objective != want.Objective || !slices.Equal(got.Thresholds, want.Thresholds) {
				t.Fatalf("%v tau=%d: lazy %+v, eager %+v", est, tau, got, want)
			}
		}
	}
}

// TestSearchSteadyStateAllocs pins the query path's allocations: after
// warm-up a Search allocates its result slice and nothing else — no
// stats, no threshold vector, no per-round closure, no width slice.
func TestSearchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratches at random")
	}
	ds := dataset.UQVideoLike(1200, 11)
	ix := buildSmall(t, ds.Vectors, Options{Seed: 5})
	for _, tau := range []int{4, 12} {
		q := ds.Vectors[3]
		if _, err := ix.Search(q, tau); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := ix.Search(q, tau); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Fatalf("tau=%d: %v allocations per Search, want at most 2", tau, allocs)
		}
	}
}

// TestSearchGrowKeepsRows: CN rows do not depend on τ, so a kNN that
// grows through several radii estimates each partition in full at most
// once for the whole call.
func TestSearchGrowKeepsRows(t *testing.T) {
	ds := dataset.SIFTLike(1200, 12)
	ix := buildSmall(t, ds.Vectors, Options{Seed: 5})
	grew, scanned := false, false
	for _, q := range dataset.PerturbQueries(ds, 8, 10, 3) {
		got, gs, err := ix.SearchGrow(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if want := linearKNN(ds.Vectors, q, 5); !slices.Equal(got, want) {
			t.Fatalf("kNN %v, linear scan %v", got, want)
		}
		if gs.CNScans > len(ix.ests) {
			t.Fatalf("%d radii took %d full row estimations over %d partitions", gs.Radii, gs.CNScans, len(ix.ests))
		}
		grew = grew || gs.Radii >= 3
		scanned = scanned || (gs.Radii >= 3 && gs.CNScans > 0)
	}
	if !grew || !scanned {
		t.Fatalf("no query grew through three radii with a full row estimation (grew=%v, scanned=%v)", grew, scanned)
	}
}
