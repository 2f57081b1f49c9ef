package verify

import (
	"math/rand"
	"sync"
	"syscall"
	"testing"
	"unsafe"

	"gph/internal/bitvec"
)

// guarded returns a copy of words whose last word ends on the last
// mapped byte before a PROT_NONE page: reading one byte past the slice
// is a SIGSEGV, not a stale value that happens to compare right.
func guarded(t *testing.T, words []uint64) []uint64 {
	t.Helper()
	if len(words) == 0 {
		return nil
	}
	page := syscall.Getpagesize()
	size := (8*len(words)+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // test teardown: nothing to do about a failure
	if err := syscall.Mprotect(mem[size-page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	out := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[size-page-8*len(words)])), len(words))
	copy(out, words)
	return out
}

// TestScanStopsAtGuardPage places the arena, the word-0 column and the
// query words each flush against an unreadable page for every n through
// nine groups: a kernel that loads a whole vector where part of one
// remains (stage 1 reads exactly groups·8 words of the column), or a
// query broadcast wider than w words, crashes here.
func TestScanStopsAtGuardPage(t *testing.T) {
	eachArm(t, func(t *testing.T, scan scanArm) {
		rng := rand.New(rand.NewSource(53))
		for _, dims := range kernelDims {
			q := randVector(rng, dims, 0.5)
			gq := bitvec.FromWordsSharedUnchecked(dims, guarded(t, q.Words()))
			for n := 0; n <= 72; n++ {
				for _, tc := range []struct {
					tau  int
					dist func(tau, i int) int
				}{
					// Every row at tau or just past it: dense, the row kernels.
					{dims / 3, func(tau, _ int) int { return tau + rng.Intn(2) }},
					// Row 0 alone survives word 0: from n = 64 the column
					// path's own stage 2, below it one survivor is dense.
					{min(dims/3, 20), func(tau, i int) int { return tau + rng.Intn(2) + (dims-tau-1)*min(i, 1) }},
				} {
					packed := near(t, rng, q, n, func(i int) int { return tc.dist(tc.tau, i) })
					want := wantWithin(packed, q, tc.tau)
					c := &Codes{n: n, dims: dims, w: packed.w, words: guarded(t, packed.words)}
					c.sketch = guarded(t, packed.ensureSketch())
					c.sketchReady.Store(true)
					if got := scan(c, gq.Words(), tc.tau, nil); !equalIDs(got, want) {
						t.Fatalf("dims=%d n=%d tau=%d: got %v want %v", dims, n, tc.tau, got, want)
					}
				}
			}
		}
	})
}

// TestFirstScansRace: sixteen goroutines issue their first AppendWithin
// on one fresh Codes — over a heap arena, and wrapped over a mapping as
// a mapped open would — and every one gets the portable answer from one
// and the same column (run under -race in CI).
func TestFirstScansRace(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, dims := range []int{128, 192} {
		q := randVector(rng, dims, 0.5)
		tau := dims / 3
		packed := near(t, rng, q, probeRows+chunkRows+77, func(i int) int { return tau + rng.Intn(2) + (dims-tau-1)*min(i%3, 1) })
		want := scanPortable(packed, q.Words(), tau, nil)
		wrapped, err := Wrap(packed.n, dims, guarded(t, packed.words))
		if err != nil {
			t.Fatal(err)
		}
		wantBytes := int64(0)
		if kernelMissing == "" {
			wantBytes = int64(8 * packed.n)
		}
		for name, c := range map[string]*Codes{
			"packed":  {n: packed.n, dims: dims, w: packed.w, words: packed.words},
			"wrapped": wrapped,
		} {
			if got := c.SketchBytes(); got != 0 {
				t.Fatalf("dims=%d %s: SketchBytes %d before any scan", dims, name, got)
			}
			var wg sync.WaitGroup
			columns := make([]*uint64, 16)
			for g := range columns {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if got := c.AppendWithin(q, tau, nil); !equalIDs(got, want) {
						t.Errorf("dims=%d %s, goroutine %d: got %d ids, want %d", dims, name, g, len(got), len(want))
					}
					if kernelMissing == "" {
						columns[g] = &c.sketch[0]
					}
				}()
			}
			wg.Wait()
			for g, col := range columns {
				if col != columns[0] {
					t.Fatalf("dims=%d %s: goroutine %d scanned another column than goroutine 0: built twice", dims, name, g)
				}
			}
			if got := c.SketchBytes(); got != wantBytes {
				t.Fatalf("dims=%d %s: SketchBytes %d after the first scans, want %d", dims, name, got, wantBytes)
			}
		}
	}
}
