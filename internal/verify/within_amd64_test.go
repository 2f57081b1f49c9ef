package verify

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
)

// bitsKernel is the primitive's shape: the w = 1 kernels return how many
// bits they set, the row kernels (through uncounted) −1.
type bitsKernel func(rows *uint64, groups int, q *uint64, tau uint64, out *uint64) int

func uncounted(kernel func(rows *uint64, groups int, q *uint64, tau uint64, out *uint64)) bitsKernel {
	return func(rows *uint64, groups int, q *uint64, tau uint64, out *uint64) int {
		kernel(rows, groups, q, tau, out)
		return -1
	}
}

// goReference is withinBitsGo at row width w, in the primitive's shape.
func goReference(w int) bitsKernel {
	return func(rows *uint64, groups int, q *uint64, tau uint64, out *uint64) int {
		return withinBitsGo(w, rows, groups, q, tau, out)
	}
}

// groupCounts runs through every remainder of the w = 1 kernel's
// four-group loop several times over, and to a whole chunk and one group
// short of it.
func groupCounts() []int {
	counts := []int{chunkRows/8 - 1, chunkRows / 8}
	for groups := 0; groups <= 24; groups++ {
		counts = append(counts, groups)
	}
	return counts
}

// TestWithinBitsWritesGroupsBytes pins the primitive's output contract
// below the driver: groups bytes written, ascending from out, not one
// more — the byte after them is the next chunk word the driver reads —
// groups = 0 touches nothing, and a kernel that counts returns the bits
// it set. The Go reference is held to the same contract at every width.
func TestWithinBitsWritesGroupsBytes(t *testing.T) {
	for _, k := range []struct {
		name   string
		w      int
		kernel bitsKernel
	}{
		{"withinBits1", 1, withinBits1}, {"withinBits1x1", 1, withinBits1x1},
		{"withinBits2", 2, uncounted(withinBits2)}, {"withinBits4", 4, uncounted(withinBits4)},
		{"Go/w=1", 1, goReference(1)}, {"Go/w=2", 2, goReference(2)}, {"Go/w=4", 4, goReference(4)},
	} {
		if kernelMissing != "" && !strings.HasPrefix(k.name, "Go/") {
			t.Logf("%s NOT exercised: this host lacks %s", k.name, kernelMissing)
			continue
		}
		rows := make([]uint64, chunkRows*k.w) // all zero: every row is the query
		q := make([]uint64, k.w)
		for _, groups := range groupCounts() {
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
				count := k.kernel(&rows[0], groups, &q[0], tc.tau, &out[0])
				if want := groups * bits.OnesCount8(tc.want); count >= 0 && count != want {
					t.Fatalf("%s groups=%d, %s: returned %d hits, want %d", k.name, groups, tc.name, count, want)
				}
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

// TestWithinBits1CountsItsBitmap holds both w = 1 kernels against the
// one-group loop as it ran before the block compare, kept here in Go: the
// bytes are that loop's and the count is their popcount, into an output
// filled with 0xFF so that a store skipped on the no-hit path shows. One
// row is planted at distance τ (a hit) or τ + 1 (none) in each of the 32
// row positions of the first and of the last whole block and in every
// row of the 1–3-group remainder, over rows that lie past τ — all 64 bits
// away at τ = 63, the largest count the VPMINUD tree has to carry — or,
// in the last case, anywhere, so that blocks hold many hits. The Go
// reference at w = 1 is held to the same loop.
func TestWithinBits1CountsItsBitmap(t *testing.T) {
	kernels := map[string]bitsKernel{"Go/w=1": goReference(1)}
	if kernelMissing == "" {
		kernels["withinBits1"], kernels["withinBits1x1"] = withinBits1, withinBits1x1
	} else {
		t.Logf("withinBits1 and withinBits1x1 NOT exercised: this host lacks %s", kernelMissing)
	}
	rng := rand.New(rand.NewSource(73))
	q := rng.Uint64()
	at := func(dist int) uint64 { // a row dist bits from q
		row := q
		for _, b := range rng.Perm(64)[:dist] {
			row ^= 1 << b
		}
		return row
	}
	reference := func(rows []uint64, groups int, tau int, out []byte) (hits int) {
		for g := 0; g < groups; g++ {
			out[g] = 0
			for k, row := range rows[8*g : 8*g+8] {
				if bits.OnesCount64(row^q) <= tau {
					out[g] |= 1 << k
					hits++
				}
			}
		}
		return hits
	}
	for _, tc := range []struct{ tau, nearest int }{{0, 1}, {16, 17}, {63, 64}, {32, 0}} {
		for _, groups := range groupCounts() {
			rows := make([]uint64, 8*groups+1) // &rows[0] with no group to read
			for i := range rows {
				rows[i] = at(tc.nearest + rng.Intn(65-tc.nearest))
			}
			planted := []int{-1}
			for pos := 0; pos < 32; pos++ {
				planted = append(planted, pos, (groups/4-1)*32+pos, groups/4*32+pos)
			}
			for _, row := range planted {
				if row < -1 || row >= 8*groups {
					continue
				}
				for _, dist := range []int{tc.tau, tc.tau + 1} {
					kept := rows[max(row, 0)]
					if row >= 0 {
						rows[row] = at(dist)
					}
					want := bytes.Repeat([]byte{0xFF}, chunkRows/8+8)
					wantHits := reference(rows, groups, tc.tau, want)
					for name, kernel := range kernels {
						out := make([]uint64, len(want)/8)
						for i := range out {
							out[i] = ^uint64(0)
						}
						hits := kernel(&rows[0], groups, &q, uint64(tc.tau), &out[0])
						got := make([]byte, len(want))
						for i, word := range out {
							binary.LittleEndian.PutUint64(got[8*i:], word)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("%s tau=%d groups=%d, row %d at distance %d: bitmap %x, want %x", name, tc.tau, groups, row, dist, got[:groups+1], want[:groups+1])
						}
						if hits != wantHits {
							t.Fatalf("%s tau=%d groups=%d, row %d at distance %d: returned %d hits, its bitmap holds %d", name, tc.tau, groups, row, dist, hits, wantHits)
						}
					}
					rows[max(row, 0)] = kept
				}
			}
		}
	}
}

// BenchmarkScanKernelsColumn is stage 1 of the column path alone: the
// w = 1 primitive over a 20 000-row word-0 column (160 KB), four groups
// an iteration and one compare for the four (withinBits1) against one
// group and one compare (withinBits1x1, its remainder loop), a chunk a
// call as the driver issues them; the same at a τ where every block holds
// a survivor ("every-block-hits": the in-block hit path's worst case, the
// rate of every block before the block compare); and over the column of
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
		tau    uint64 // 16: one row in 10⁵ within it; 28: one in 5, every block
		kernel bitsKernel
	}{
		{"unrolled-x4", 20000, 16, withinBits1}, {"single-group", 20000, 16, withinBits1x1},
		{"every-block-hits", 20000, 28, withinBits1}, {"column-8MB", len(column), 16, withinBits1},
	} {
		b.Run(k.name, func(b *testing.B) {
			for b.Loop() {
				for lo := 0; lo < k.n; lo += chunkRows {
					k.kernel(&column[lo], min(k.n-lo, chunkRows)/8, &q, k.tau, &hits[0])
				}
			}
			reportScan(b, k.n, 8)
		})
	}
}
