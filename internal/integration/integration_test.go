// Package integration holds cross-package tests: every index
// implementation against the linear-scan oracle on every dataset
// generator, plus smoke coverage of the experiment harness.
package integration

import (
	"testing"

	"gph/internal/bitvec"
	"gph/internal/core"
	"gph/internal/dataset"
	"gph/internal/engine"
	"gph/internal/engine/enginetest"
	"gph/internal/hmsearch"
	"gph/internal/linscan"
	"gph/internal/lsh"
	"gph/internal/partalloc"
)

func equal(a, b []int32) bool {
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

// TestAllAlgorithmsAgree is the repository's strongest end-to-end
// property: on every generator, every exact algorithm returns exactly
// the oracle's result set at every threshold, and LSH returns a
// subset with decent recall.
func TestAllAlgorithmsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("integration matrix skipped in -short mode")
	}
	type gen struct {
		name string
		data *dataset.Dataset
		taus []int
		m    int
	}
	// Sized so that gph answers each generator's smallest τ by its index
	// (asserted below) and its largest by scan, whichever price the host's
	// scan has; PubChem-like's 14-word rows have no row kernel, and from
	// τ = 8 (a dense scan) 1 000 of them are dear enough on every host.
	gens := []gen{
		{"sift", dataset.SIFTLike(4000, 1), []int{2, 6, 10}, 4},
		{"gist", dataset.GISTLike(5000, 2), []int{2, 10, 16}, 6},
		{"pubchem", dataset.PubChemLike(1000, 3), []int{8, 12, 20}, 12},
		{"fasttext", dataset.FastTextLike(4000, 4), []int{2, 6, 10}, 4},
		{"uqvideo", dataset.UQVideoLike(8000, 5), []int{2, 12, 20}, 6},
	}
	for _, g := range gens {
		g := g
		t.Run(g.name, func(t *testing.T) {
			data := g.data.Vectors
			queries := dataset.PerturbQueries(g.data, 8, 4, 6)
			oracle, err := linscan.New(data)
			if err != nil {
				t.Fatal(err)
			}
			gphOpts := core.Options{
				NumPartitions: g.m, MaxTau: g.taus[len(g.taus)-1],
				Seed: 1, SampleSize: 300, WorkloadSize: 12,
			}
			gphIx, err := core.Build(data, gphOpts)
			if err != nil {
				t.Fatal(err)
			}
			// The other end of gph's guard: a hundred rows cost less to scan
			// than a query costs to bind, on any host.
			tiny, err := core.Build(data[:100], gphOpts)
			if err != nil {
				t.Fatal(err)
			}
			enginetest.FreeScan(t, tiny, queries[0], g.taus[0])
			mihIx, err := engine.Build(core.MIHEngineName, data, engine.BuildOptions{NumPartitions: g.m})
			if err != nil {
				t.Fatal(err)
			}
			enginetest.OnIndex(t, gphIx, queries[0], g.taus[0])
			for _, tau := range g.taus {
				hm, err := hmsearch.Build(data, tau, hmsearch.Options{})
				if err != nil {
					t.Fatal(err)
				}
				pa, err := partalloc.Build(data, tau, partalloc.Options{})
				if err != nil {
					t.Fatal(err)
				}
				ls, err := lsh.Build(data, tau, lsh.Options{Seed: 2})
				if err != nil {
					t.Fatal(err)
				}
				var truth, lshGot int
				for qi, q := range queries {
					want, _ := oracle.Search(q, tau)
					truth += len(want)
					check := func(algo string, got []int32, err error) {
						t.Helper()
						if err != nil {
							t.Fatalf("%s τ=%d q%d: %v", algo, tau, qi, err)
						}
						if !equal(want, got) {
							t.Fatalf("%s τ=%d q%d: want %d results, got %d",
								algo, tau, qi, len(want), len(got))
						}
					}
					got, err := gphIx.Search(q, tau)
					check("gph", got, err)
					got, err = mihIx.Search(q, tau)
					check("mih", got, err)
					got, err = hm.Search(q, tau)
					check("hmsearch", got, err)
					got, err = pa.Search(q, tau)
					check("partalloc", got, err)
					approx, err := ls.Search(q, tau)
					if err != nil {
						t.Fatalf("lsh τ=%d q%d: %v", tau, qi, err)
					}
					lshGot += len(approx)
					// LSH results must always be a subset of the truth.
					wi := 0
					for _, id := range approx {
						for wi < len(want) && want[wi] < id {
							wi++
						}
						if wi >= len(want) || want[wi] != id {
							t.Fatalf("lsh τ=%d q%d: false positive id %d", tau, qi, id)
						}
					}
				}
				if truth > 0 && float64(lshGot)/float64(truth) < 0.5 {
					t.Errorf("lsh recall %d/%d suspiciously low on %s τ=%d", lshGot, truth, g.name, tau)
				}
			}
		})
	}
}

// TestGPHBeatsBasicPigeonholeOnSkew asserts the paper's headline
// claim at test scale: on highly skewed data GPH generates
// substantially fewer candidates than MIH with the same m.
func TestGPHBeatsBasicPigeonholeOnSkew(t *testing.T) {
	ds := dataset.PubChemLike(4000, 7)
	queries := dataset.PerturbQueries(ds, 10, 4, 8)
	gphIx, err := core.Build(ds.Vectors, core.Options{
		NumPartitions: 12, MaxTau: 16, Seed: 1, SampleSize: 300, WorkloadSize: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	mihIx, err := engine.Build(core.MIHEngineName, ds.Vectors, engine.BuildOptions{NumPartitions: 12})
	if err != nil {
		t.Fatal(err)
	}
	var gphCand, mihCand int
	tau := 10
	for _, q := range queries {
		// A scanned query's candidates are the collection: no comparison.
		enginetest.OnIndex(t, gphIx, q, tau)
		_, gs, err := gphIx.SearchStats(q, tau)
		if err != nil {
			t.Fatal(err)
		}
		_, ms, err := mihIx.SearchStats(q, tau)
		if err != nil {
			t.Fatal(err)
		}
		gphCand += gs.Candidates
		mihCand += ms.Candidates
	}
	if gphCand*2 > mihCand {
		t.Fatalf("GPH candidates (%d) not well below MIH's (%d) on skewed data", gphCand, mihCand)
	}
	t.Logf("candidates at τ=%d: GPH=%d MIH=%d (%.1fx reduction)",
		tau, gphCand, mihCand, float64(mihCand)/float64(gphCand+1))
}

// TestParallelBatchUnderRace exercises concurrent searches (run with
// -race in CI) across all index types that support shared reads.
func TestParallelBatchUnderRace(t *testing.T) {
	ds := dataset.UQVideoLike(10000, 9)
	ix, err := core.Build(ds.Vectors, core.Options{
		NumPartitions: 6, MaxTau: 16, Seed: 1, SampleSize: 200, WorkloadSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]bitvec.Vector, 40)
	for i := range queries {
		queries[i] = ds.Vectors[i*7]
	}
	enginetest.OnIndex(t, ix, queries[0], 4)
	res, err := ix.SearchBatch(queries, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if len(res[i]) == 0 {
			t.Fatalf("query %d (an indexed vector) found nothing", i)
		}
	}
}
