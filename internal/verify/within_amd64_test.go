package verify

import (
	"math/rand"
	"testing"
)

// TestWithinBitsWritesGroupsBytes pins the primitive's output contract
// below the driver: groups bytes written, ascending from out, not one
// more — the byte after them is the next chunk word the driver reads —
// and groups = 0 touches nothing. Group counts run through every
// remainder of the w = 1 kernel's four-group loop several times over,
// and to a whole chunk and one group short of it.
func TestWithinBitsWritesGroupsBytes(t *testing.T) {
	if kernelMissing != "" {
		t.Skipf("kernel NOT exercised: this host lacks %s", kernelMissing)
	}
	counts := []int{chunkRows/8 - 1, chunkRows / 8}
	for groups := 0; groups <= 24; groups++ {
		counts = append(counts, groups)
	}
	for _, k := range []struct {
		name   string
		w      int
		kernel func(rows *uint64, groups int, q *uint64, tau uint64, out *uint64)
	}{
		{"withinBits1", 1, withinBits1}, {"withinBits1x1", 1, withinBits1x1},
		{"withinBits2", 2, withinBits2}, {"withinBits4", 4, withinBits4},
	} {
		rows := make([]uint64, chunkRows*k.w) // all zero: every row is the query
		q := make([]uint64, k.w)
		for _, groups := range counts {
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
				out := make([]uint64, chunkRows/64+1)
				for i := range out {
					out[i] = 0x0101010101010101 * uint64(tc.fill)
				}
				k.kernel(&rows[0], groups, &q[0], tc.tau, &out[0])
				for b := 0; b < 8*len(out); b++ {
					want := tc.fill
					if b < groups {
						want = tc.want
					}
					if got := byte(out[b/8] >> (8 * (b % 8))); got != want {
						t.Fatalf("%s groups=%d, %s: out byte %d = %#02x, want %#02x", k.name, groups, tc.name, b, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkScanKernelsColumn is stage 1 of the column path alone: the
// w = 1 primitive over a 20 000-row word-0 column (160 KB), four groups
// an iteration (withinBits1) against one (withinBits1x1, its remainder
// loop and what every scan ran before the column made it the inner
// loop), a chunk a call as the driver issues them; and over the column of
// 10⁶ rows ("column-8MB"), which no cache holds between passes — the two
// rates a scan is priced at (stepBytesCached, stepBytesMemory).
func BenchmarkScanKernelsColumn(b *testing.B) {
	if kernelMissing != "" {
		b.Skipf("kernel NOT exercised: this host lacks %s", kernelMissing)
	}
	rng := rand.New(rand.NewSource(59))
	column := make([]uint64, 1000000)
	for i := range column {
		column[i] = rng.Uint64()
	}
	q := rng.Uint64()
	var hits [chunkRows / 64]uint64
	for _, k := range []struct {
		name   string
		n      int
		kernel func(rows *uint64, groups int, q *uint64, tau uint64, out *uint64)
	}{{"unrolled-x4", 20000, withinBits1}, {"single-group", 20000, withinBits1x1}, {"column-8MB", len(column), withinBits1}} {
		b.Run(k.name, func(b *testing.B) {
			for b.Loop() {
				for lo := 0; lo < k.n; lo += chunkRows {
					k.kernel(&column[lo], min(k.n-lo, chunkRows)/8, &q, 16, &hits[0])
				}
			}
			reportScan(b, k.n, 8)
		})
	}
}
