//go:build !amd64

package invindex

import "unsafe"

// kernelMissing is never empty here: the only validation kernels are
// amd64's, so kernelArm is the portable passes' under cpu.KernelAssembly
// and the kernels below are never called.
const kernelMissing = "an AVX-512 kernel for this GOARCH"

func refLists8(refs *byte, groups, stride int, perm *[64]byte, load, split uint64, lists *uint64, top *[64]byte) {
	panic("invindex: no " + kernelMissing)
}

func refLists16(refs *byte, groups, stride int, perm *[64]byte, load, split uint64, lists *uint64, top *[64]byte) {
	panic("invindex: no " + kernelMissing)
}

func refLists32(refs *byte, groups, stride int, perm *[64]byte, load, split uint64, lists *uint64, top *[64]byte) {
	panic("invindex: no " + kernelMissing)
}

func remsAscend8(rems *byte, groups, stride, rl int, perm *[64]byte, load uint64, marks *[keyBlock]byte) (bad, seen uint64) {
	panic("invindex: no " + kernelMissing)
}

func remsAscend16(rems *byte, groups, stride, rl int, perm *[64]byte, load uint64, marks *[keyBlock]byte) (bad, seen uint64) {
	panic("invindex: no " + kernelMissing)
}

func remsAscend32(rems *byte, groups, stride, rl int, perm *[64]byte, load uint64, marks *[keyBlock]byte) (bad, seen uint64) {
	panic("invindex: no " + kernelMissing)
}

func remsAscend64(rems *byte, groups, stride, rl int, perm *[64]byte, load uint64, marks *[keyBlock]byte) (bad, seen uint64) {
	panic("invindex: no " + kernelMissing)
}

func dirDescents16(dir unsafe.Pointer, groups int) uint64 {
	panic("invindex: no " + kernelMissing)
}

func dirDescents32(dir unsafe.Pointer, groups int) uint64 {
	panic("invindex: no " + kernelMissing)
}

func listsOK(arena *byte, size int, offs *uint32, groups int, idLimit uint64, ok *byte) {
	panic("invindex: no " + kernelMissing)
}
