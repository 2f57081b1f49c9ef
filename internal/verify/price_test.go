package verify

import (
	"math/bits"
	"slices"
	"sync"
	"testing"

	"gph/internal/bitvec"
	"gph/internal/dataset"
)

// TestScanStepsFollowsThePath pins scanSteps arm by arm, in one binary
// whatever the host: the kernel widths on either side of the hand-off, the
// widths whose dense side is the portable loops, no kernel at all, and
// both size classes (n = 20 000 reads 160 KB of column, n = 10⁶ 8 MB).
func TestScanStepsFollowsThePath(t *testing.T) {
	const through = 20
	for _, tc := range []struct {
		n, w, tau int
		kernel    bool
		want      int64
		arm       string
	}{
		{20000, 1, 5, true, 20000 * 8 / stepBytesCached, "one-word rows: the w = 1 kernel at any tau"},
		{20000, 1, 60, true, 20000 * 8 / stepBytesCached, "one-word rows: the w = 1 kernel at any tau"},
		{20000, 2, through, true, 20000 * 8 / stepBytesCached, "sparse: the column, in cache"},
		{20000, 4, through, true, 20000 * 8 / stepBytesCached, "sparse: the column at any width"},
		{20000, 14, through, true, 20000 * 8 / stepBytesCached, "sparse: the column at any width"},
		{20000, 2, through + 1, true, 20000 * 16 / stepBytesCached, "dense: withinBits2 over the rows"},
		{20000, 4, through + 1, true, 20000 * 32 / stepBytesCached, "dense: withinBits4 over the rows"},
		{20000, 3, through + 1, true, 20000 * 5 / 3, "dense, no row kernel: the portable loops"},
		{20000, 14, through + 1, true, 20000 * 16 / 3, "dense, no row kernel: the portable loops"},
		{1000000, 2, through, true, 1000000 * 8 / stepBytesMemory, "sparse: the column, from memory"},
		{1000000, 4, through + 1, true, 1000000 * 32 / stepBytesMemory, "dense: the rows, from memory"},
		{1000000, 14, through + 1, true, 1000000 * 16 / 3, "dense, no row kernel, from memory: the portable loops"},
		{131072, 2, through, true, 131072 * 8 / stepBytesCached, "1 MiB read is still the cached class"},
		{131073, 2, through, true, 131073 * 8 / stepBytesMemory, "a row more is not"},
		{20000, 1, 5, false, 20000, "no kernel: (2 + w)/3 a row"},
		{20000, 2, through, false, 20000 * 4 / 3, "no kernel: (2 + w)/3 a row, sparse or not"},
		{20000, 4, through + 1, false, 20000 * 2, "no kernel: (2 + w)/3 a row"},
		{1000000, 14, 5, false, 1000000 * 16 / 3, "no kernel: (2 + w)/3 a row at any size"},
		{0, 2, 5, true, 0, "an empty arena"},
	} {
		if got := scanSteps(tc.n, tc.w, tc.tau, through, tc.kernel); got != tc.want {
			t.Errorf("scanSteps(n=%d, w=%d, tau=%d, through=%d, kernel=%v) = %d, want %d (%s)", tc.n, tc.w, tc.tau, through, tc.kernel, got, tc.want, tc.arm)
		}
	}
	// What Codes says of itself is that function of its own shape.
	c := Pack(dataset.SIFTLike(2000, 3).Vectors)
	through2 := -1
	if kernelMissing == "" {
		through2 = c.sparseThrough()
	}
	for tau := 0; tau < c.dims; tau++ {
		if got, want := c.ScanSteps(tau), scanSteps(c.n, c.w, tau, through2, kernelMissing == ""); got != want {
			t.Fatalf("ScanSteps(%d) = %d, scanSteps says %d", tau, got, want)
		}
	}
	if kernelMissing != "" && c.sparse.Load() != 0 {
		t.Fatal("a host without the kernels sampled the arena")
	}
}

// TestSparseThroughPredictsTheHandOff: the sampled sparse-through is where
// the driver's own hand-off happens. On the corpora whose hand-off is a
// cliff (sift-, uqvideo- and gist-like) it lies within 2 of the largest τ
// at which scanColumn still answers more than half the rows of 100
// perturbed queries from the column — "always sparse" would be 40 off. It
// is a function of the arena alone: two Packs and a Wrap of the same rows
// agree, sixteen first callers race to the same answer, and no call
// allocates.
func TestSparseThroughPredictsTheHandOff(t *testing.T) {
	for _, ds := range []*dataset.Dataset{dataset.SIFTLike(20000, 1), dataset.UQVideoLike(20000, 1), dataset.GISTLike(20000, 1)} {
		c := Pack(ds.Vectors)
		var wg sync.WaitGroup
		firsts := make([]int, 16)
		for i := range firsts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				firsts[i] = c.sparseThrough()
			}()
		}
		wg.Wait()
		through := firsts[0]
		if slices.Max(firsts) != slices.Min(firsts) {
			t.Fatalf("%s: sixteen first callers read %v", ds.Name, firsts)
		}
		wrapped, err := Wrap(c.n, c.dims, slices.Clone(c.words))
		if err != nil {
			t.Fatal(err)
		}
		if again, w := Pack(ds.Vectors).sparseThrough(), wrapped.sparseThrough(); again != through || w != through {
			t.Fatalf("%s: sparse through %d, a second Pack says %d and a Wrap of the arena %d", ds.Name, through, again, w)
		}
		if allocs := testing.AllocsPerRun(10, func() { c.ScanSteps(through) }); allocs != 0 {
			t.Fatalf("%s: ScanSteps allocates %v times a call", ds.Name, allocs)
		}
		if fresh := Pack(ds.Vectors); testing.AllocsPerRun(1, func() { fresh.sparseThrough() }) != 0 {
			t.Fatalf("%s: the first sparseThrough allocates", ds.Name)
		}
		if kernelMissing != "" {
			t.Logf("%s: sparse through tau=%d; hand-off NOT measured: this host lacks %s", ds.Name, through, kernelMissing)
			continue
		}
		queries := dataset.PerturbQueries(ds, 100, 4, 7)
		measured := -1
		for tau := 0; tau < 64; tau++ {
			byRows := 0
			for _, q := range queries {
				_, rows := c.scanColumn(q.Words(), tau, 0, c.n, nil)
				byRows += rows
			}
			if 2*byRows > len(queries)*c.n {
				break
			}
			measured = tau
		}
		t.Logf("%s: sparse through tau=%d by the sample, tau=%d by scanColumn's hand-off", ds.Name, through, measured)
		if through < measured-2 || through > measured+2 {
			t.Fatalf("%s: the sample says sparse through tau=%d, scanColumn hands more than half the rows over past tau=%d", ds.Name, through, measured)
		}
	}
}

// sparseThroughReference is sparseThrough as first written: a pair at a
// time, straight off the arena, into one histogram.
func sparseThroughReference(c *Codes) int {
	var hist [bitvec.WordBits + 1]int
	pairs := 0
	qStep, rStep := (c.n+sampleQueries-1)/sampleQueries, (c.n+sampleRows-1)/sampleRows
	for a := 0; a < c.n; a += qStep {
		for b := rStep / 2; b < c.n; b += rStep {
			if a != b {
				hist[bits.OnesCount64(c.words[a*c.w]^c.words[b*c.w])]++
				pairs++
			}
		}
	}
	through, within := -1, 0
	for d := 0; d < bitvec.WordBits; d++ {
		if within += hist[d]; within*denseOneIn > pairs {
			break
		}
		through = d
	}
	return through
}

// TestSparseThroughMatchesReference: sparseThrough answers what the
// plain loop answers, on sift-, uqvideo- and pubchem-like arenas at sizes
// where the sampled queries and rows coincide often, sometimes or never,
// and where either sample is shorter than its quota.
func TestSparseThroughMatchesReference(t *testing.T) {
	for _, ds := range []*dataset.Dataset{dataset.SIFTLike(20000, 2), dataset.UQVideoLike(20000, 2), dataset.PubChemLike(20000, 2)} {
		for _, n := range []int{1, 2, 3, 63, 64, 65, 255, 256, 257, 1000, 16384, 20000} {
			c := Pack(ds.Vectors[:n])
			if got, want := c.sparseThrough(), sparseThroughReference(c); got != want {
				t.Errorf("%s n=%d: sparse through %d, the reference says %d", ds.Name, n, got, want)
			}
		}
	}
}

// BenchmarkSparseThrough is what every index's first query pays for its
// sampled pairs (ScanSteps), on the two lib corpora: sparseThrough
// against sparseThroughReference.
func BenchmarkSparseThrough(b *testing.B) {
	for _, ds := range []*dataset.Dataset{dataset.SIFTLike(20000, 1), dataset.UQVideoLike(20000, 1)} {
		c := Pack(ds.Vectors)
		b.Run(ds.Name+"/sampled", func(b *testing.B) {
			for range b.N {
				c.sparse.Store(0)
				c.sparseThrough()
			}
		})
		b.Run(ds.Name+"/reference", func(b *testing.B) {
			for range b.N {
				sparseThroughReference(c)
			}
		})
	}
}
