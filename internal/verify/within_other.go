//go:build !amd64

package verify

// kernelMissing is never empty here: the only within-τ kernel is the
// amd64 one (within_amd64.go), so AppendWithinRange always takes the
// portable loops and the compiler drops the scanKernel call.
const kernelMissing = "a within-τ kernel for this GOARCH"

func scanKernel(words []uint64, w int, qw []uint64, tau, base int, dst []int32) []int32 {
	panic("verify: no " + kernelMissing)
}
