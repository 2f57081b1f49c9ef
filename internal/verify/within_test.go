package verify

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"gph/internal/bitvec"
)

// The tests of this file hold the two arms of AppendWithin against each
// other and against per-row Distance in one binary: scanPortable, which
// the compiler checked, and scanKernel, which nothing did. On a host
// without the kernel the second arm is skipped with the missing feature
// named, so a CI log says when the assembly went untested.

// scanArm is a full scan of c: ids within tau of qw appended to dst.
type scanArm func(c *Codes, qw []uint64, tau int, dst []int32) []int32

// eachArm runs body against the portable loops and the kernel driver.
func eachArm(t *testing.T, body func(t *testing.T, scan scanArm)) {
	t.Run("portable", func(t *testing.T) { body(t, scanPortable) })
	t.Run("kernel", func(t *testing.T) {
		if kernelMissing != "" {
			t.Skipf("kernel arm NOT exercised: this host lacks %s", kernelMissing)
		}
		body(t, func(c *Codes, qw []uint64, tau int, dst []int32) []int32 {
			return scanKernel(c.words, c.w, qw, tau, 0, dst)
		})
	})
}

// kernelDims lists, per kernel width, a full-word dimensionality and
// one that leaves the last word partly used.
var kernelDims = []int{64, 37, 128, 100, 256, 200}

// near builds n rows around q, row i at distance dist(i) exactly: bits
// start, start+stride, … (mod dims, stride coprime to every dims a
// test uses) are flipped, so the distance spreads over the row's words a
// different way each row. It asserts the tail-bit precondition the
// kernels rely on rather than assuming it: they popcount whole words.
func near(t testing.TB, rng *rand.Rand, q bitvec.Vector, n int, dist func(i int) int) *Codes {
	t.Helper()
	dims := q.Dims()
	data := make([]bitvec.Vector, n)
	for i := range data {
		v := q.Clone()
		start, stride := rng.Intn(dims), []int{1, 7, 11, 13, 17}[rng.Intn(5)]
		for j, d := 0, dist(i); j < d; j++ {
			v.Flip((start + j*stride) % dims)
		}
		if err := v.CheckTail(); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		data[i] = v
	}
	if err := q.CheckTail(); err != nil {
		t.Fatalf("query: %v", err)
	}
	if n == 0 {
		return &Codes{dims: dims, w: (dims + 63) / 64}
	}
	return Pack(data)
}

// wantWithin is the reference answer: per-row Distance, no batching.
func wantWithin(c *Codes, q bitvec.Vector, tau int) []int32 {
	var want []int32
	for id := 0; id < c.n; id++ {
		if c.Distance(q, int32(id)) <= tau {
			want = append(want, int32(id))
		}
	}
	return want
}

// TestKernelDispatch says in the log which arm AppendWithin takes on
// this host, and pins the dispatch: every width, kernel or not, answers
// what scanPortable answers, and a range answers its slice of the full
// scan with absolute ids.
func TestKernelDispatch(t *testing.T) {
	if kernelMissing == "" {
		t.Log("AppendWithin: rows of 1, 2 and 4 words take the AVX-512 VPOPCNTDQ kernel; other widths are portable")
	} else {
		t.Logf("AppendWithin: portable loops only, kernel NOT exercised: this host lacks %s", kernelMissing)
	}
	rng := rand.New(rand.NewSource(23))
	for _, dims := range []int{64, 128, 192, 256, 320, 881} {
		q := randVector(rng, dims, 0.5)
		tau := dims / 3
		c := near(t, rng, q, 531, func(int) int { return tau - 1 + rng.Intn(3) })
		full := scanPortable(c, q.Words(), tau, nil)
		if got := c.AppendWithin(q, tau, nil); !equalIDs(got, full) {
			t.Fatalf("dims=%d: AppendWithin %v, scanPortable %v", dims, got, full)
		}
		for _, r := range [][2]int{{0, 0}, {0, 531}, {1, 9}, {256, 512}, {300, 531}, {523, 531}, {531, 531}} {
			var within, all []int32
			for _, id := range full {
				if int(id) >= r[0] && int(id) < r[1] {
					within = append(within, id)
				}
			}
			for id := r[0]; id < r[1]; id++ {
				all = append(all, int32(id))
			}
			for _, tc := range []struct {
				tau  int
				want []int32
			}{{-1, nil}, {tau, within}, {dims, all}} {
				if got := c.AppendWithinRange(q, tc.tau, r[0], r[1], nil); !equalIDs(got, tc.want) {
					t.Fatalf("dims=%d tau=%d range %v: got %v want %v", dims, tc.tau, r, got, tc.want)
				}
			}
		}
	}
}

// TestScanArmsDifferential: kernel ≡ scanPortable ≡ per-row Distance
// for every kernel width, every n through nine groups and around the
// chunk size, boundary taus, and match densities from none to all —
// with every row placed at distance tau or tau+1, so a count that is
// off by one bit, or summed into the neighbouring row, changes the
// answer.
func TestScanArmsDifferential(t *testing.T) {
	var sizes []int
	for n := 0; n <= 72; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, chunkRows-1, chunkRows, chunkRows+1, 2*chunkRows+8)
	eachArm(t, func(t *testing.T, scan scanArm) {
		rng := rand.New(rand.NewSource(29))
		for _, dims := range kernelDims {
			q := randVector(rng, dims, 0.5)
			for _, tau := range []int{0, 1, dims / 2, dims - 1} {
				for _, n := range sizes {
					one := -1
					if n > 0 {
						one = rng.Intn(n)
					}
					for _, density := range []struct {
						name string
						dist func(i int) int
					}{
						{"none", func(int) int { return tau + 1 }},
						{"one", func(i int) int {
							if i == one {
								return tau
							}
							return tau + 1
						}},
						{"half", func(int) int { return tau + rng.Intn(2) }},
						{"all", func(int) int { return rng.Intn(tau + 1) }},
					} {
						c := near(t, rng, q, n, density.dist)
						want := wantWithin(c, q, tau)
						if got := scan(c, q.Words(), tau, nil); !equalIDs(got, want) {
							t.Fatalf("dims=%d tau=%d n=%d density=%s: got %d ids %v, want %d %v", dims, tau, n, density.name, len(got), head(got), len(want), head(want))
						}
					}
				}
			}
		}
	})
}

// head keeps a failure message readable on a chunk-sized fixture.
func head(ids []int32) []int32 {
	if len(ids) > 16 {
		return ids[:16]
	}
	return ids
}

// TestScanStaleBits: the driver reuses one bitmap across chunks, and a
// short last chunk fills only a prefix of it. Every row of the full
// chunks matches and no row after them does (and the other way round),
// so a bit left over from the chunk before would be a wrong id.
func TestScanStaleBits(t *testing.T) {
	eachArm(t, func(t *testing.T, scan scanArm) {
		rng := rand.New(rand.NewSource(31))
		for _, dims := range []int{64, 128, 256} {
			q := randVector(rng, dims, 0.5)
			tau := dims / 4
			for _, chunks := range []int{1, 2} {
				for _, last := range []int{8, 24, 64, 72, 520, chunkRows - 8, 13, 4093} {
					full := chunks * chunkRows
					for _, hitsFirst := range []bool{true, false} {
						c := near(t, rng, q, full+last, func(i int) int {
							if (i < full) == hitsFirst {
								return tau
							}
							return tau + 1
						})
						var want []int32
						for id := 0; id < full+last; id++ {
							if (id < full) == hitsFirst {
								want = append(want, int32(id))
							}
						}
						if got := scan(c, q.Words(), tau, nil); !equalIDs(got, want) {
							t.Fatalf("dims=%d chunks=%d last=%d hitsFirst=%v: got %d ids, want %d", dims, chunks, last, hitsFirst, len(got), len(want))
						}
					}
				}
			}
			// Hits in the last group of a full chunk only, then a shorter chunk.
			c := near(t, rng, q, chunkRows+40, func(i int) int {
				if i >= chunkRows-8 && i < chunkRows {
					return tau
				}
				return tau + 1
			})
			want := []int32{chunkRows - 8, chunkRows - 7, chunkRows - 6, chunkRows - 5, chunkRows - 4, chunkRows - 3, chunkRows - 2, chunkRows - 1}
			if got := scan(c, q.Words(), tau, nil); !equalIDs(got, want) {
				t.Fatalf("dims=%d: last group of a full chunk: got %v want %v", dims, got, want)
			}
		}
	})
}

// TestScanUnalignedArena: Wrap adopts mmap-borrowed arenas that are
// 8-aligned and no more. The same rows placed at every word offset of a
// larger slice — at most one of the eight is 64-aligned — answer the
// same.
func TestScanUnalignedArena(t *testing.T) {
	eachArm(t, func(t *testing.T, scan scanArm) {
		rng := rand.New(rand.NewSource(37))
		for _, dims := range kernelDims {
			q := randVector(rng, dims, 0.5)
			tau := dims / 3
			packed := near(t, rng, q, 203, func(int) int { return tau + rng.Intn(2) })
			want := wantWithin(packed, q, tau)
			for off := 0; off < 8; off++ {
				big := make([]uint64, off+len(packed.words))
				copy(big[off:], packed.words)
				c, err := Wrap(packed.n, dims, big[off:])
				if err != nil {
					t.Fatal(err)
				}
				if got := scan(c, q.Words(), tau, nil); !equalIDs(got, want) {
					t.Fatalf("dims=%d arena at words[%d:]: got %v want %v", dims, off, got, want)
				}
			}
		}
	})
}

// TestScanAllocatesNothing: with a destination that already has room,
// a scan — kernel, portable, whole or a range — allocates nothing (the
// hit bitmap and the portable arm's row view stay on the stack).
func TestScanAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, dims := range []int{64, 128, 256, 881} {
		q := randVector(rng, dims, 0.5)
		tau := dims / 3
		c := near(t, rng, q, chunkRows+100, func(int) int { return tau + rng.Intn(2) })
		dst := make([]int32, 0, c.n)
		for name, f := range map[string]func(){
			"AppendWithin":      func() { dst = c.AppendWithin(q, tau, dst[:0]) },
			"AppendWithinRange": func() { dst = c.AppendWithinRange(q, tau, 5, c.n-3, dst[:0]) },
		} {
			if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
				t.Fatalf("dims=%d: %s allocates %v per run, want 0", dims, name, allocs)
			}
		}
	}
}

// fuzzCollection decodes fuzz bytes into a collection and a query:
// byte 0 picks the row width (1–5 words: the three kernel widths and
// both generic shapes), byte 1 how much of the last word is used, byte
// 2 the threshold, then the query words and as many whole rows as the
// rest holds. Tail bits are masked off, as every constructor does.
func fuzzCollection(data []byte) (c *Codes, q bitvec.Vector, tau int, ok bool) {
	if len(data) < 3 {
		return nil, bitvec.Vector{}, 0, false
	}
	w := 1 + int(data[0])%5
	dims := 64*(w-1) + 1 + int(data[1])%64
	tau = int(data[2]) % (dims + 1)
	data = data[3:]
	if len(data) < 8*w {
		return nil, bitvec.Vector{}, 0, false
	}
	words := make([]uint64, len(data)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	n := len(words)/w - 1
	for i := 0; i <= n; i++ {
		bitvec.FromWords(dims, words[i*w:(i+1)*w]) // masks the tail in place
	}
	q = bitvec.FromWords(dims, words[:w])
	c, err := Wrap(n, dims, words[w:(n+1)*w])
	return c, q, tau, err == nil
}

// FuzzAppendWithin: whatever the bytes, the dispatched scan, the
// portable loops and per-row Distance agree. The seed corpus is
// testdata/fuzz/FuzzAppendWithin.
func FuzzAppendWithin(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, q, tau, ok := fuzzCollection(data)
		if !ok {
			t.Skip()
		}
		want := wantWithin(c, q, tau)
		if got := scanPortable(c, q.Words(), tau, nil); !equalIDs(got, want) {
			t.Fatalf("w=%d n=%d tau=%d: scanPortable %v, per-row %v", c.w, c.n, tau, got, want)
		}
		if got := c.AppendWithin(q, tau, nil); !equalIDs(got, want) {
			t.Fatalf("w=%d n=%d tau=%d: AppendWithin %v, per-row %v", c.w, c.n, tau, got, want)
		}
	})
}

// BenchmarkScanKernels reports what a scanned row costs by width, for
// the portable loops and for whatever AppendWithin dispatches to on
// this host (the same thing at w = 14, and everywhere without the
// kernel), over an L2-resident arena of 20 000 rows that match nothing
// — plus a copy of the w = 2 arena, the roof the GB/s read against.
func BenchmarkScanKernels(b *testing.B) {
	const n = 20000
	rng := rand.New(rand.NewSource(47))
	report := func(b *testing.B, rowBytes int) {
		perRow := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / n
		b.ReportMetric(perRow, "ns/row")
		b.ReportMetric(float64(rowBytes)/perRow, "GB/s")
	}
	for _, w := range []int{1, 2, 4, 14} {
		dims := 64 * w
		q := randVector(rng, dims, 0.5)
		words := make([]uint64, n*w)
		for i := range words {
			words[i] = rng.Uint64()
		}
		c, err := Wrap(n, dims, words)
		if err != nil {
			b.Fatal(err)
		}
		tau, dst := dims/4, make([]int32, 0, n)
		b.Run(fmt.Sprintf("w=%d/portable", w), func(b *testing.B) {
			for b.Loop() {
				dst = scanPortable(c, q.Words(), tau, dst[:0])
			}
			report(b, 8*w)
		})
		b.Run(fmt.Sprintf("w=%d/dispatched", w), func(b *testing.B) {
			for b.Loop() {
				dst = c.AppendWithin(q, tau, dst[:0])
			}
			report(b, 8*w)
		})
	}
	src, dst := make([]uint64, 2*n), make([]uint64, 2*n)
	b.Run("copy-320KB", func(b *testing.B) {
		for b.Loop() {
			copy(dst, src)
		}
		report(b, 16)
	})
}
