package verify

import (
	"math/rand"
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

// TestScanStopsAtGuardPage places the arena, and the query words, flush
// against an unreadable page for every n through nine groups: a kernel
// that loads a whole vector where part of one remains, or a query
// broadcast wider than w words, crashes here.
func TestScanStopsAtGuardPage(t *testing.T) {
	eachArm(t, func(t *testing.T, scan scanArm) {
		rng := rand.New(rand.NewSource(53))
		for _, dims := range kernelDims {
			q := randVector(rng, dims, 0.5)
			gq := bitvec.FromWordsSharedUnchecked(dims, guarded(t, q.Words()))
			tau := dims / 3
			for n := 0; n <= 72; n++ {
				packed := near(t, rng, q, n, func(int) int { return tau + rng.Intn(2) })
				want := wantWithin(packed, q, tau)
				c := &Codes{n: n, dims: dims, w: packed.w, words: guarded(t, packed.words)}
				if got := scan(c, gq.Words(), tau, nil); !equalIDs(got, want) {
					t.Fatalf("dims=%d n=%d: got %v want %v", dims, n, got, want)
				}
			}
		}
	})
}
