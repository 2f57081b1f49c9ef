//go:build !amd64

package verify

import "gph/internal/cpu"

// kernelMissing is never empty here: the only within-τ kernels are amd64's
// (within_amd64.go), so AppendWithinRange always takes the portable loops (Arm),
// the scanKernel and scanColumn calls compile away, and no column is built.
const kernelMissing = "a within-τ kernel for this GOARCH"

// Arm is the portable loops here, whatever cpu.Force set.
func Arm() cpu.Kernel { return cpu.KernelPortable }

func scanKernel(words []uint64, w int, qw []uint64, tau, base int, dst []int32) []int32 {
	panic("verify: no " + kernelMissing)
}

func (c *Codes) scanColumn(qw []uint64, tau, lo, hi int, dst []int32) ([]int32, int) {
	panic("verify: no " + kernelMissing)
}
