package invindex

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"

	"gph/internal/cpu"
)

// guarded returns a copy of s whose last element ends on the last mapped
// byte before a PROT_NONE page: a kernel that reads one byte past the
// array faults here instead of reading a stale value.
func guarded[T any](t *testing.T, s []T) []T {
	t.Helper()
	if len(s) == 0 {
		return s
	}
	size := len(s) * int(unsafe.Sizeof(s[0]))
	page := syscall.Getpagesize()
	span := (size+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, span, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // test teardown: nothing to do about a failure
	if err := syscall.Mprotect(mem[span-page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	out := unsafe.Slice((*T)(unsafe.Pointer(&mem[span-page-size])), len(s))
	copy(out, s)
	return out
}

// TestKernelsStopAtGuardPage places every array a kernel reads — the
// refs, the remainders, the directory and the lists, each with the pad
// the file gives it — flush against an unreadable page, at key counts where the
// kernels' last vector ends at the last element (refs in whole groups of
// 64, remainders after the first in whole groups, directories of 2^b + 1
// offsets), and holds the kernels and their Go reference to the portable
// passes' verdict, on each section and on edits of it.
func TestKernelsStopAtGuardPage(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for rl := 1; rl <= 8; rl++ {
		for _, n := range []int{64, 65, 128, 129, 512, 513, 576, 577} {
			width := min(64, bucketBits(n)+8*rl-2)
			if remBytes(width, n) != rl {
				continue
			}
			for k, maxID := range []int32{100, 0x10000, 1 << 30} {
				f := kernelSection(rng, width, n, maxID, []string{"two ids", "long"}[(k+n)%2])
				for i := range 4 {
					what := "as built"
					g := f
					if i > 0 {
						g, what = kernelEdit(rng, f)
					}
					want := fmt.Sprint(withArm(cpu.KernelPortable, g.validateContent))
					h := &Frozen{keyArena: guarded(t, g.keyArena), keyLen: g.keyLen, remLen: g.remLen, width: g.width, postArena: guarded(t, g.postArena),
						refs: guarded(t, g.refs), refLen: g.refLen, numKeys: g.numKeys, postings: g.postings, dir16: guarded(t, g.dir16),
						dir32: guarded(t, g.dir32), dirShift: g.dirShift, maxID: g.maxID}
					for _, arm := range arms()[:len(arms())-1] {
						if got := fmt.Sprint(withArm(arm, h.validateContent)); got != want {
							t.Fatalf("%d-byte remainders, %d-byte refs, n=%d, maxID=%#x, %s, %s arm: %s, portable passes: %s", rl, g.refLen, n, maxID, what, arm, got, want)
						}
					}
				}
			}
		}
	}
}

// withArm runs validate with the content tier's arm forced.
func withArm(arm cpu.Kernel, validate func() error) error {
	defer cpu.Force(cpu.Setting{Kernel: arm})()
	return validate()
}
