package core

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"gph/internal/binio"
	"gph/internal/bitvec"
	"gph/internal/dataset"
	"gph/internal/engine"
	"gph/internal/engine/enginetest"
	"gph/internal/hamming"
	"gph/internal/invindex"
	"gph/internal/mmapio"
)

// openShifted opens ix in borrow mode over a file mapping that holds
// the index one byte in, so every arena the mapping lends starts one
// byte off wherever openModes' mapping puts it: between the two, each
// key arena is read at an odd address.
func openShifted(t *testing.T, ix *Index) *Index {
	t.Helper()
	buf := bytes.NewBuffer([]byte{0})
	if err := ix.Save(buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shifted.gph")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := mmapio.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	shifted, err := Load(binio.NewSource(m.Data()[1:]))
	if err != nil {
		t.Fatal(err)
	}
	if err := shifted.ensureValidated(); err != nil {
		t.Fatal(err)
	}
	return shifted
}

// wideCorpus is a corpus on which an index plan that scans a partition's
// keys still beats scanning the collection, as priced by allocate: rows
// of fourteen words make a dense scan dear (no row kernel: the portable
// price on every host, from τ = 6 on), and eight partitions over 881
// skewed dimensions leave seven wider than a word and one narrow, its
// thousand keys cheap to pass over. 12 000 rows, so that the column scan
// of the smallest radii (1 500 steps) costs more than binding the query
// and a DP round (≈ 1 100–1 250) and a kNN starts on the index.
var wideCorpus = sync.OnceValues(func() (*dataset.Dataset, *Index) {
	ds := dataset.PubChemLike(12000, 11)
	ix, err := Build(ds.Vectors, Options{Seed: 5, NumPartitions: 8, SampleSize: 200, WorkloadSize: 10, MaxTau: 12})
	if err != nil {
		panic(err)
	}
	return ds, ix
})

// dupKeyCorpus is the other corpus on which a plan with a key scan in it
// gets past the scan guard — this one at small radii, on partitions
// wider than every radius that follows. Rows of three words in three
// 64-bit partitions (original order, no refinement; three words have no
// row kernel, so a dense scan is the portable loops' 10 000 steps on
// every host, and with a row in 60 a near-copy of any other every τ past
// 2 is dense); 60 prototypes, each row a prototype that shows, in every
// partition, one of four fixed variants of it a few bits apart. A
// partition holds 240 distinct keys for 6000 rows, so any ball past the
// point is dearer to probe than the keys are to pass over, and a row's
// hundred prototype-mates lie within a few dozen bits of it: a kNN grows
// through radii 1, 2, 4, 8, 16 on the index, histogramming and scanning
// keys from radius 4 on.
var dupKeyCorpus = sync.OnceValues(func() (*dataset.Dataset, *Index) {
	const prototypes, variants, parts, rows = 60, 4, 3, 6000
	rng := rand.New(rand.NewSource(7))
	var keys [prototypes][parts][variants]uint64
	for p := range keys {
		for i := range keys[p] {
			proto := rng.Uint64()
			for v := range keys[p][i] {
				keys[p][i][v] = proto
				for f := 0; f < 2*v; f++ {
					keys[p][i][v] ^= 1 << rng.Intn(64)
				}
			}
		}
	}
	ds := &dataset.Dataset{Name: "dupkeys", Dims: 64 * parts, Vectors: make([]bitvec.Vector, rows)}
	for id := range ds.Vectors {
		words := make([]uint64, parts)
		for i := range words {
			words[i] = keys[id%prototypes][i][rng.Intn(variants)]
		}
		ds.Vectors[id] = bitvec.FromWords(ds.Dims, words)
	}
	ix, err := Build(ds.Vectors, Options{Seed: 5, NumPartitions: parts, Init: InitOriginal, NoRefine: true, SampleSize: 200, WorkloadSize: 10, MaxTau: 12})
	if err != nil {
		panic(err)
	}
	return ds, ix
})

// TestGatherPathsAgree: the two ways generate has of collecting a
// partition's candidates are one function. For every partition and
// every threshold up to where the ball stops being enumerable, probing
// the ball and scanning the keys gather the same ids and decode the
// same number of postings — on skewed and unskewed corpora, and on an
// index as built, loaded into the heap, and borrowed from a mapping at
// either alignment. It also holds generate to using both, on the corpus
// where a plan with a key scan in it gets past the scan guard.
func TestGatherPathsAgree(t *testing.T) {
	wideDS, wideIx := wideCorpus()
	// 20 000 rows: the searches at the end must run the index at small τ.
	uqvideo, sift := dataset.UQVideoLike(20000, 11), dataset.SIFTLike(20000, 12)
	for _, c := range []struct {
		name     string
		ds       *dataset.Dataset
		built    *Index
		keyScans bool // a plan with a key scan in it gets past the guard here
	}{
		{"uqvideo", uqvideo, buildSmall(t, uqvideo.Vectors, Options{Seed: 5}), false},
		{"sift", sift, buildSmall(t, sift.Vectors, Options{Seed: 5}), false},
		{"pubchem", wideDS, wideIx, true},
	} {
		name, ds, built := c.name, c.ds, c.built
		modes := openModes(t, built)
		modes["mapped+1"] = openShifted(t, built)
		queries := append([]bitvec.Vector{ds.Vectors[0], ds.Vectors[600]}, dataset.PerturbQueries(ds, 3, 6, 21)...)
		for mode, ix := range modes {
			probed, scanned, kept := ix.getScratch(), ix.getScratch(), ix.getScratch()
			staged, unstaged := 0, 0
			for _, q := range queries {
				ix.bindQuery(q, probed)
				ix.bindQuery(q, scanned)
				ix.bindQuery(q, kept)
				ix.startTable(4, kept)
				for i, w := range ix.parts.Widths() {
					for ti := 0; ti <= w+1; ti++ {
						if ball, ok := hamming.BallSize(w, ti); !ok || ball > 1<<14 {
							break
						}
						ix.probeBall(i, ti, probed)
						scannedBefore := scanned.sumPost
						ix.scanKeys(i, ti, scanned)
						if ti == 0 {
							// A third way, for the point ball alone: from the entry
							// the row start found and kept. Same ids in the same
							// order as the probe, counted as the one signature it
							// is; and the row's first cell is what both decoded.
							only := slices.Repeat([]int{-1}, len(ix.parts.Parts))
							only[i] = 0
							sigs, sumPost := kept.sigs, kept.sumPost
							if err := ix.generate(only, 0, kept); err != nil {
								t.Fatal(err)
							}
							if kept.starts[i] != noStart {
								staged++
								if !slices.Equal(kept.cand.IDs, probed.cand.IDs) || kept.sigs != sigs+1 {
									t.Fatalf("%s/%s partition %d (width %d): the kept entry gathered %v as %d signatures, the probe %v",
										name, mode, i, w, kept.cand.IDs, kept.sigs-sigs, probed.cand.IDs)
								}
							} else if w > 0 {
								unstaged++
							}
							if got, want := kept.sumPost-sumPost, scanned.sumPost-scannedBefore; got != want || (w > 0 && kept.table[i][1] != got) {
								t.Fatalf("%s/%s partition %d (width %d): generate decoded %d postings for T = 0, the row starts at %d, the scan decoded %d",
									name, mode, i, w, got, kept.table[i][1], want)
							}
							kept.cand.Reset()
						}
						if probed.sumPost != scanned.sumPost {
							t.Fatalf("%s/%s partition %d (width %d) threshold %d: probes decoded %d postings, the scan %d",
								name, mode, i, w, ti, probed.sumPost, scanned.sumPost)
						}
						slices.Sort(probed.cand.IDs)
						slices.Sort(scanned.cand.IDs)
						if !slices.Equal(probed.cand.IDs, scanned.cand.IDs) {
							t.Fatalf("%s/%s partition %d (width %d) threshold %d: probes gathered %d ids, the scan %d",
								name, mode, i, w, ti, len(probed.cand.IDs), len(scanned.cand.IDs))
						}
						probed.cand.Reset()
						scanned.cand.Reset()
					}
				}
			}
			if probed.sigs == 0 || scanned.keysScanned == 0 {
				t.Fatalf("%s/%s: %d signatures probed, %d keys scanned", name, mode, probed.sigs, scanned.keysScanned)
			}
			// Partitions wider than a word (and those of a handful of keys)
			// start their rows through extendRow and are probed by
			// enumeration; the corpus with key scans has the wide ones.
			if staged == 0 || (unstaged == 0 && c.keyScans) {
				t.Fatalf("%s/%s: %d row starts were staged and kept, %d were not", name, mode, staged, unstaged)
			}
			ix.putScratch(probed)
			ix.putScratch(scanned)
			ix.putScratch(kept)

			sigs, keys := 0, 0
			for tau := 0; tau <= 20; tau++ {
				_, st, err := ix.SearchStats(queries[2], tau)
				if err != nil {
					t.Fatal(err)
				}
				sigs, keys = sigs+st.Signatures, keys+st.KeysScanned
				if (st.KeyScans == 0) != (st.KeysScanned == 0) {
					t.Fatalf("%s/%s tau=%d: %d key scans compared %d keys", name, mode, tau, st.KeyScans, st.KeysScanned)
				}
			}
			if sigs == 0 || (keys == 0 && c.keyScans) {
				t.Fatalf("%s/%s: searches probed %d signatures and scanned %d keys; the rule should choose both", name, mode, sigs, keys)
			}
		}
	}
}

// TestScratchComesBackClean: no query clears the dedup bitmap on the
// way in, so every way out must leave it all zero — however the
// candidates were reordered, compacted or abandoned on the way.
func TestScratchComesBackClean(t *testing.T) {
	ds, ix := wideCorpus()
	q := dataset.PerturbQueries(ds, 1, 6, 21)[0]
	steps := []struct {
		name string
		run  func() error
	}{
		{"Search, few candidates", func() error { _, err := ix.Search(q, 2); return err }},
		{"Search, more candidates than bitmap words", func() error {
			_, st, err := ix.SearchStats(q, 16)
			if err == nil && (st.Scanned || st.Candidates <= (ix.count+63)/64 || st.KeyScans == 0) {
				t.Fatalf("tau=16 should gather many candidates through a key scan: %+v", *st)
			}
			return err
		}},
		{"Search by the scan guard", func() error {
			_, st, err := ix.SearchStats(q, 60)
			if err == nil && !st.Scanned {
				t.Fatalf("tau=60 should trip the scan guard: %+v", *st)
			}
			return err
		}},
		{"SearchIter drained", func() error {
			for _, err := range ix.SearchIter(q, 16) {
				if err != nil {
					return err
				}
			}
			return nil
		}},
		{"SearchIter stopped early", func() error {
			for _, err := range ix.SearchIter(ds.Vectors[7], 16) {
				return err
			}
			t.Fatal("a stored vector found nothing")
			return nil
		}},
		{"SearchGrow", func() error {
			_, gs, err := ix.SearchGrow(q, 1)
			if err == nil && gs.Scanned {
				t.Fatalf("k = 1 should end on the index: %+v", gs)
			}
			return err
		}},
		{"SearchGrow ending in a scan", func() error {
			_, gs, err := ix.SearchGrow(q, ix.count)
			if err == nil && !gs.Scanned {
				t.Fatalf("k = n should end in a scan: %+v", gs)
			}
			return err
		}},
		{"generate failing on its budget", func() error {
			// The first partition is probed at its point — the stored
			// vector's own bucket — then the first later one whose radius-1
			// ball is small enough to be probed does not fit a budget of
			// one signature.
			s := ix.getScratch()
			ix.bindQuery(ds.Vectors[7], s)
			T := make([]int, ix.parts.NumParts())
			for i := range T {
				T[i] = -1
			}
			T[0] = 0
			for i := 1; i < len(T) && !slices.Contains(T, 1); i++ {
				if ball, _ := hamming.BallSize(s.widths[i], 1); probeBeatsScan(ball, ix.inv[i].NumKeys()) {
					T[i] = 1
				}
			}
			err := ix.generate(T, 1, s)
			if !errors.Is(err, hamming.ErrEnumerationBudget) {
				t.Fatalf("generate %v over a budget of 1: %v", T, err)
			}
			if len(s.cand.IDs) == 0 {
				t.Fatal("a stored vector's own partition-0 bucket is empty")
			}
			ix.putScratch(s)
			return nil
		}},
	}
	exits := []enginetest.Exit{{Name: "a query refused", Run: func(t *testing.T) {
		if _, err := ix.Search(q, -1); err == nil {
			t.Fatal("tau=-1 was answered")
		}
	}}}
	for _, step := range steps {
		exits = append(exits, enginetest.Exit{Name: step.name, Pooled: true, Run: func(t *testing.T) {
			if err := step.run(); err != nil {
				t.Fatalf("%s: %v", step.name, err)
			}
		}})
	}
	enginetest.PoolComesBackClean(t, &ix.scratch, func(s *searchScratch) *invindex.IDSet { return &s.cand }, exits)
}

// TestGrowStatsMirrorKeyScans: a kNN that grows through radii reports
// the key scans of all its rounds — what a Search at each of those
// radii reports, summed — whether the scans come at the last radius
// (wideCorpus) or from the third of five on (dupKeyCorpus).
func TestGrowStatsMirrorKeyScans(t *testing.T) {
	for _, c := range []struct {
		name   string
		corpus func() (*dataset.Dataset, *Index)
		k      int
		spread bool // some kNN scans keys at more than one of its radii
	}{
		{"pubchem", wideCorpus, 1, false},
		{"dupkeys", dupKeyCorpus, 5, true},
	} {
		ds, ix := c.corpus()
		scans, spread := 0, false
		for _, q := range dataset.PerturbQueries(ds, 8, 12, 3) {
			_, gs, err := ix.SearchGrow(q, c.k)
			if err != nil {
				t.Fatal(err)
			}
			var want engine.GrowStats
			radii := 0
			for tau := 1; tau <= gs.FinalTau; tau *= 2 {
				_, st, err := ix.SearchStats(q, tau)
				if err != nil {
					t.Fatal(err)
				}
				want.KeyScans += st.KeyScans
				want.KeysScanned += st.KeysScanned
				if st.KeyScans > 0 {
					radii++
				}
			}
			if gs.KeyScans != want.KeyScans || gs.KeysScanned != want.KeysScanned {
				t.Fatalf("%s: kNN through %d radii reports %d key scans over %d keys; its radii searched one by one, %d over %d",
					c.name, gs.Radii, gs.KeyScans, gs.KeysScanned, want.KeyScans, want.KeysScanned)
			}
			scans += gs.KeyScans
			spread = spread || radii > 1
		}
		if scans == 0 || spread != c.spread {
			t.Fatalf("%s: growing kNNs scanned keys %d times, at several radii of one call: %v, want %v", c.name, scans, spread, c.spread)
		}
	}
}
