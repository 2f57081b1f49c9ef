package bitvec

import "testing"

// forceGather makes Project take the gather arm until the test ends.
func forceGather(t testing.TB) {
	was := pextMissing
	pextMissing = "the gather arm, forced by a test"
	t.Cleanup(func() { pextMissing = was })
}
