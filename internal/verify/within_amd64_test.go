package verify

import "testing"

// TestWithinBitsWritesGroupsBytes pins the primitive's output contract
// below the driver: groups bytes written, ascending from out, not one
// more — the byte after them is the next chunk word the driver reads —
// and groups = 0 touches nothing.
func TestWithinBitsWritesGroupsBytes(t *testing.T) {
	if kernelMissing != "" {
		t.Skipf("kernel NOT exercised: this host lacks %s", kernelMissing)
	}
	kernels := map[int]func(rows *uint64, groups int, q *uint64, tau uint64, out *uint64){
		1: withinBits1, 2: withinBits2, 4: withinBits4,
	}
	for w, kernel := range kernels {
		rows := make([]uint64, 24*8*w) // all zero: every row is the query
		q := make([]uint64, w)
		for groups := 0; groups <= 24; groups++ {
			for _, tc := range []struct {
				name       string
				qword      uint64 // q[0]: distance 0 or 2 from every row
				tau        uint64
				fill, want byte // out before the call; a written byte after it
			}{
				{"all rows match", 0, 1, 0x00, 0xFF},
				{"no row matches", 3, 1, 0xFF, 0x00},
			} {
				q[0] = tc.qword
				out := make([]uint64, 4)
				for i := range out {
					out[i] = 0x0101010101010101 * uint64(tc.fill)
				}
				kernel(&rows[0], groups, &q[0], tc.tau, &out[0])
				for b := 0; b < 8*len(out); b++ {
					want := tc.fill
					if b < groups {
						want = tc.want
					}
					if got := byte(out[b/8] >> (8 * (b % 8))); got != want {
						t.Fatalf("w=%d groups=%d, %s: out byte %d = %#02x, want %#02x", w, groups, tc.name, b, got, want)
					}
				}
			}
		}
	}
}
