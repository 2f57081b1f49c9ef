//go:build !amd64

package verify

import "testing"

// selectGoKernels: off amd64 there are no kernel paths to take.
func selectGoKernels(t testing.TB) {
	t.Skipf("kernel paths NOT exercised: there is no %s", kernelMissing)
}
