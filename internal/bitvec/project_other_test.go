//go:build !amd64

package bitvec

import "testing"

// forceGather: Project only gathers off amd64.
func forceGather(testing.TB) {}
