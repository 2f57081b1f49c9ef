package invindex

import (
	"unsafe"

	"gph/internal/cpu"
)

// The kernels of kernels_amd64.s; kernels.go has their contract and
// their Go reference. Leaf functions without preemption points: a call
// covers at most keyBlock entries.

//go:noescape
func refLists8(refs *byte, groups, stride int, perm *[64]byte, load, split uint64, lists *uint64, top *[64]byte)

//go:noescape
func refLists16(refs *byte, groups, stride int, perm *[64]byte, load, split uint64, lists *uint64, top *[64]byte)

//go:noescape
func refLists32(refs *byte, groups, stride int, perm *[64]byte, load, split uint64, lists *uint64, top *[64]byte)

//go:noescape
func remsAscend8(rems *byte, groups, stride, rl int, perm *[64]byte, load uint64, marks *[keyBlock]byte) (bad, seen uint64)

//go:noescape
func remsAscend16(rems *byte, groups, stride, rl int, perm *[64]byte, load uint64, marks *[keyBlock]byte) (bad, seen uint64)

//go:noescape
func remsAscend32(rems *byte, groups, stride, rl int, perm *[64]byte, load uint64, marks *[keyBlock]byte) (bad, seen uint64)

//go:noescape
func remsAscend64(rems *byte, groups, stride, rl int, perm *[64]byte, load uint64, marks *[keyBlock]byte) (bad, seen uint64)

//go:noescape
func dirDescents16(dir unsafe.Pointer, groups int) uint64

//go:noescape
func dirDescents32(dir unsafe.Pointer, groups int) uint64

//go:noescape
func listsOK(arena *byte, size int, offs *uint32, groups int, idLimit uint64, ok *byte)

// kernelMissing names the first thing this CPU or OS lacks of what the
// kernels execute, or is empty when they can run: internal/cpu's
// verdict, read once at package init.
var kernelMissing = cpu.KernelMissing
