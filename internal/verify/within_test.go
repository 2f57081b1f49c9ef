package verify

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"gph/internal/bitvec"
	"gph/internal/cpu"
)

// The tests of this file hold the arms of AppendWithin against each
// other and against per-row Distance in one binary: scanPortable, which
// the compiler checked, and the two drivers over the assembly, which
// nothing did — scanKernel on the row arena and scanColumn on the
// word-0 column. On a host without the kernels those arms are skipped
// with the missing feature named, so a CI log says when the assembly
// went untested.

// scanArm is a full scan of c: ids within tau of qw appended to dst.
type scanArm func(c *Codes, qw []uint64, tau int, dst []int32) []int32

// scanByColumn is the column path as AppendWithinRange dispatches it
// (one-word rows have no column and go to the row kernel), with how many
// rows the hand-off sent to the row path.
func scanByColumn(c *Codes, qw []uint64, tau, lo, hi int, dst []int32) ([]int32, int) {
	if c.w == 1 {
		return scanKernel(c.words[lo:hi], 1, qw, tau, lo, dst), hi - lo
	}
	return c.scanColumn(qw, tau, lo, hi, dst)
}

// eachArm runs body against the portable loops, the row-kernel driver
// and the column driver, each driver on both kernels (eachKernel).
func eachArm(t *testing.T, body func(t *testing.T, scan scanArm)) {
	t.Run("portable", func(t *testing.T) { body(t, scanPortable) })
	for name, scan := range map[string]scanArm{
		"kernel": func(c *Codes, qw []uint64, tau int, dst []int32) []int32 {
			return scanKernel(c.words, c.w, qw, tau, 0, dst)
		},
		"column": func(c *Codes, qw []uint64, tau int, dst []int32) []int32 {
			dst, _ = scanByColumn(c, qw, tau, 0, c.n, dst)
			return dst
		},
	} {
		t.Run(name, func(t *testing.T) { eachKernel(t, func(t *testing.T) { body(t, scan) }) })
	}
}

// eachKernel runs body with the drivers on the assembly kernels, where
// the host has them, and on their Go reference, which every amd64 host
// runs: the drivers' hand-off, bitmap clearing and hit-count early-out
// are tested on a host without AVX-512 VPOPCNTDQ as well.
func eachKernel(t *testing.T, body func(t *testing.T)) {
	t.Run("assembly", func(t *testing.T) {
		if kernelMissing != "" {
			t.Skipf("assembly NOT exercised: this host lacks %s", kernelMissing)
		}
		body(t)
	})
	t.Run("go", func(t *testing.T) {
		forceKernel(t, cpu.KernelGo)
		body(t)
	})
}

// forceKernel puts the scan arm k in force until t ends, and skips t
// where this build cannot run k.
func forceKernel(t testing.TB, k cpu.Kernel) {
	t.Cleanup(cpu.Force(cpu.Setting{Kernel: k}))
	if Arm() != k {
		t.Skipf("scan arm %v NOT exercised: there is no %s", k, kernelMissing)
	}
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
		t.Log("AppendWithin: AVX-512 VPOPCNTDQ kernels. One-word rows take the w = 1 kernel; every wider row takes it over the word-0 column, survivors finished on the row arena; dense chunks go to the w = 2 and w = 4 row kernels, to the portable loops at other widths")
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

// TestScanRangeOutsideTheArena: a range outside [0, Len()] is the caller's
// bug, and every arm answers it the way a slice expression does — the
// column, whose kernel would otherwise read past it unchecked, like the
// row kernel and the portable loops (w = 3 has no row kernel on any host),
// and AppendWithinRange whichever of them it dispatches to.
func TestScanRangeOutsideTheArena(t *testing.T) {
	const n = 100
	rng := rand.New(rand.NewSource(79))
	byRows := func(c *Codes, q bitvec.Vector, tau, lo, hi int) { c.scanRows(q.Words(), tau, lo, hi, nil) }
	byDispatch := func(c *Codes, q bitvec.Vector, tau, lo, hi int) { c.AppendWithinRange(q, tau, lo, hi, nil) }
	for _, arm := range []struct {
		name     string
		dims     int
		assembly bool
		scan     func(c *Codes, q bitvec.Vector, tau, lo, hi int)
	}{
		{"portable", 192, false, byRows},
		{"kernel", 64, true, byRows},
		{"column", 128, true, func(c *Codes, q bitvec.Vector, tau, lo, hi int) { c.scanColumn(q.Words(), tau, lo, hi, nil) }},
		{"AppendWithinRange/w=1", 64, false, byDispatch},
		{"AppendWithinRange/w=2", 128, false, byDispatch},
		{"AppendWithinRange/w=3", 192, false, byDispatch},
	} {
		t.Run(arm.name, func(t *testing.T) {
			if arm.assembly && kernelMissing != "" {
				forceKernel(t, cpu.KernelGo)
				t.Logf("assembly NOT exercised: this host lacks %s; the drivers call the Go reference", kernelMissing)
			}
			q := randVector(rng, arm.dims, 0.5)
			c := near(t, rng, q, n, func(int) int { return arm.dims / 2 })
			for _, r := range [][2]int{{-1, 8}, {-8, n}, {0, n + 1}, {n - 16, n + 8}, {n + 8, n + 16}, {50, 40}, {n, 0}} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("rows [%d, %d) of %d: no panic", r[0], r[1], n)
						}
					}()
					arm.scan(c, q, arm.dims/4, r[0], r[1])
				}()
			}
			arm.scan(c, q, arm.dims/4, 0, n)
			arm.scan(c, q, arm.dims/4, n, n)
		})
	}
}

// mixed builds n rows for the column path's tests, each one of two
// kinds: where close(i), a near-copy of q at distance tau or tau+1 — it
// survives stage 1 and the answer hangs on one bit — and elsewhere q
// with word 0 complemented, 64 apart in the one word stage 1 reads: a
// certain non-survivor at any tau < 64. Survivor density is close's to
// choose, row by row.
func mixed(t testing.TB, rng *rand.Rand, q bitvec.Vector, n, tau int, close func(i int) bool) *Codes {
	c := near(t, rng, q, n, func(int) int { return tau + rng.Intn(2) })
	for i := 0; i < n; i++ {
		if !close(i) {
			copy(c.words[i*c.w:(i+1)*c.w], q.Words())
			c.words[i*c.w] ^= ^uint64(0)
		}
	}
	return c
}

// TestColumnScanDifferential: AppendWithinRange ≡ scanPortable id for
// id at every width that takes the column (w = 2 … 14, kernel widths or
// not), for every n mod 8, over ranges that start and end off a group,
// off the 512-row probe and off a chunk (and on StreamScan's 256-row
// blocks), with tau swept from no survivor, across the density
// threshold (uniform random rows: one survivor in 110 at tau = 22, one
// in 60 at 23), to everything — over random rows salted with near-copies
// of q, so survivors both pass and fail stage 2.
func TestColumnScanDifferential(t *testing.T) {
	eachKernel(t, testColumnScanDifferential)
}

func testColumnScanDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, dims := range []int{65, 128, 192, 256, 320, 881} {
		q := randVector(rng, dims, 0.5)
		for n := probeRows + 2*chunkRows + 296; n < probeRows+2*chunkRows+304; n++ {
			data := make([]bitvec.Vector, n)
			for i := range data {
				if data[i] = randVector(rng, dims, 0.5); i%97 == 0 {
					data[i] = q.Clone()
					for j, d := 0, rng.Intn(40); j < d; j++ {
						data[i].Flip(rng.Intn(dims))
					}
				}
			}
			c := Pack(data)
			for _, tau := range []int{0, 12, 20, 22, 23, 24, 28, 32, 40, 63, 64, dims / 2, dims - 1, dims} {
				full := scanPortable(c, q.Words(), tau, nil)
				for _, r := range [][2]int{
					{0, n}, {1, n}, {3, n - 5}, {4, 4}, {n - 9, n}, {n - 7, n},
					{256, 512}, {256, 768}, {5, 5 + probeRows}, {probeRows, probeRows + chunkRows},
					{7, 7 + probeRows + chunkRows + 13}, {probeRows - 8, probeRows + chunkRows + 8},
				} {
					var want []int32
					for _, id := range full {
						if int(id) >= r[0] && int(id) < r[1] {
							want = append(want, id)
						}
					}
					if got := c.AppendWithinRange(q, tau, r[0], r[1], nil); !equalIDs(got, want) {
						t.Fatalf("dims=%d n=%d tau=%d range %v: got %d ids %v, want %d %v", dims, n, tau, r, len(got), head(got), len(want), head(want))
					}
				}
			}
		}
	}
}

// TestColumnHandOff flips the density mid-arena in each direction and
// asserts, by the rows the driver says it sent to the row path, that
// each part of the hand-off ran — and with it that the dense part was
// not answered survivor by survivor, which would pass every other test
// at a tenth of the speed. Sparse then dense: the probe and two chunks
// stay on the column, the chunk holding the flip backs off, the probe
// after the back-off backs off again. Dense then sparse: the probe
// backs off over eight chunks unasked (all but 2 000 of their rows
// sparse: asked, they would have stayed on the column), the next probe
// finds sparse rows and the column takes the rest. The row counts are
// those of the driver that counted survivors off the bitmap: the kernel's
// returned count is the same number.
func TestColumnHandOff(t *testing.T) {
	eachKernel(t, testColumnHandOff)
}

func testColumnHandOff(t *testing.T) {
	const (
		tau  = 20
		flip = probeRows + 2*chunkRows + 1000
		n    = probeRows + (backoffChunks+4)*chunkRows + 5
	)
	rng := rand.New(rand.NewSource(67))
	for _, dims := range []int{128, 192, 256, 881} {
		q := randVector(rng, dims, 0.5)
		for _, tc := range []struct {
			name   string
			close  func(i int) bool
			byRows int
		}{
			{"sparse", func(int) bool { return false }, 0},
			{"dense", func(int) bool { return true }, n &^ 7},
			{"sparse then dense", func(i int) bool { return i >= flip }, n&^7 - (probeRows + 2*chunkRows)},
			{"dense then sparse", func(i int) bool { return i < 2000 }, probeRows + backoffChunks*chunkRows},
		} {
			c := mixed(t, rng, q, n, tau, tc.close)
			want := scanPortable(c, q.Words(), tau, nil)
			got, byRows := c.scanColumn(q.Words(), tau, 0, n, nil)
			if !equalIDs(got, want) {
				t.Fatalf("dims=%d, %s: got %d ids %v, want %d %v", dims, tc.name, len(got), head(got), len(want), head(want))
			}
			if byRows != tc.byRows {
				t.Fatalf("dims=%d, %s: %d rows answered by the row path, want %d", dims, tc.name, byRows, tc.byRows)
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
			// The column driver's chunks, kept sparse so it stays on the
			// column: one hit at the top bit of each bitmap word of a full
			// chunk, then a chunk too short to overwrite those words — at
			// once, or after a chunk without a hit, which the driver passes
			// without reading its bitmap, and then with one hit in the short
			// chunk's final group, the word the clear protects. A bit left
			// standing names a row past the arena. (mixed wants a tau below
			// 64.)
			for _, last := range []int{8, 24, 72, 520, 13} {
				for _, gap := range []int{0, chunkRows} {
					const tau = 16
					n := probeRows + chunkRows + gap + last
					final := -1
					if gap > 0 {
						final = n&^7 - 1
					}
					var want []int32
					c := mixed(t, rng, q, n, tau-1, func(i int) bool {
						return i >= probeRows && i < probeRows+chunkRows && i%64 == 63 || i == final
					})
					for id := probeRows + 63; id < probeRows+chunkRows; id += 64 {
						want = append(want, int32(id))
					}
					if final >= 0 {
						want = append(want, int32(final))
					}
					if got := scan(c, q.Words(), tau, nil); !equalIDs(got, want) {
						t.Fatalf("dims=%d last=%d gap=%d: one hit a bitmap word: got %d ids %v, want %d %v", dims, last, gap, len(got), head(got), len(want), head(want))
					}
				}
			}
			// A chunk of hits, a chunk without one, then a short chunk whose
			// one hit is the last row of its final group.
			for _, last := range []int{8, 24, 72, 520, 13} {
				final := 2*chunkRows + last&^7 - 1
				c := near(t, rng, q, 2*chunkRows+last, func(i int) int {
					if i < chunkRows || i == final {
						return tau
					}
					return tau + 1
				})
				var want []int32
				for id := 0; id < chunkRows; id++ {
					want = append(want, int32(id))
				}
				want = append(want, int32(final))
				if got := scan(c, q.Words(), tau, nil); !equalIDs(got, want) {
					t.Fatalf("dims=%d last=%d: hits, none, one in the final group: got %d ids, want %d", dims, last, len(got), len(want))
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
// a scan — kernel, column, portable, whole or a range — allocates
// nothing once the first has built the column (AllocsPerRun's warm-up
// call): the hit bitmap and the row path's row view stay on the stack.
func TestScanAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, dims := range []int{64, 128, 192, 256, 881} {
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

// maxFuzzRows is how far fuzzCollection stretches an input: past the
// column path's probe, a back-off and the probe after it, with chunks to
// spare.
const maxFuzzRows = probeRows + (backoffChunks+3)*chunkRows

// fuzzCollection decodes fuzz bytes into a collection and a query:
// byte 0 mod 5 picks the row width (1–5 words: the three kernel widths
// and both generic shapes), byte 1 how much of the last word is used,
// byte 2 the threshold, then the query words and as many whole rows as
// the rest holds. Tail bits are masked off, as every constructor does.
// Byte 0 / 5 stretches the collection so that a seed of a few dozen
// rows reaches every state of the column driver: the first half of the
// rows, then the second, each repeated 1 + 16·(byte 0 / 5) times (to
// maxFuzzRows in all at most) — how dense each half is, and so where
// the driver flips, is the input's to say.
func fuzzCollection(data []byte) (c *Codes, q bitvec.Vector, tau int, ok bool) {
	if len(data) < 3 {
		return nil, bitvec.Vector{}, 0, false
	}
	w, reps := 1+int(data[0])%5, 1+16*(int(data[0])/5)
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
	rows := words[w : (n+1)*w]
	if reps = min(reps, maxFuzzRows/max(n, 1)); reps > 1 {
		stretched := make([]uint64, 0, reps*len(rows))
		for _, half := range [][]uint64{rows[:n/2*w], rows[n/2*w:]} {
			for r := 0; r < reps; r++ {
				stretched = append(stretched, half...)
			}
		}
		rows, n = stretched, reps*n
	}
	c, err := Wrap(n, dims, rows)
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

// BenchmarkScanKernels prints the prices the column path's constants
// cite (within_amd64.go), over an L2-resident arena of 20 000 uniform
// random rows that match nothing: per width, ns a row and arena GB/s
// (arena bytes over time, so the column path reads above the copy roof
// when it skips the arena) at a sparse, a threshold and a dense τ — the
// word-0 survivors are 0.004 %, 0.9 % (one in 64 is 1.6 %) and 54 % of
// the rows — for the row path and the column path, through the
// unexported drivers; the portable loops where the row path is not
// them (it is at w = 3 and 14, and everywhere without the kernels); and
// a copy of the w = 2 arena, the roof the row path's GB/s read against. BenchmarkScanKernelsColumn (amd64) is stage 1 alone.
func BenchmarkScanKernels(b *testing.B) {
	const n = 20000
	rng := rand.New(rand.NewSource(47))
	for _, w := range []int{1, 2, 3, 4, 14} {
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
		dst := make([]int32, 0, n)
		run := func(name string, scan func()) {
			b.Run(fmt.Sprintf("w=%d/%s", w, name), func(b *testing.B) {
				for b.Loop() {
					scan()
				}
				reportScan(b, n, 8*w)
			})
		}
		for i, tau := range []int{16, 22, 32} {
			name := "τ=" + []string{"sparse", "threshold", "dense"}[i]
			if i == 0 && kernelMissing == "" && (w == 1 || w == 2 || w == 4) {
				run(name+"/portable", func() { dst = scanPortable(c, q.Words(), tau, dst[:0]) })
			}
			if i == 0 || w > 1 {
				run(name+"/row", func() { dst = c.scanRows(q.Words(), tau, 0, n, dst[:0]) })
			}
			if kernelMissing == "" && w > 1 {
				run(name+"/column", func() { dst, _ = c.scanColumn(q.Words(), tau, 0, n, dst[:0]) })
			}
		}
	}
	src, dst := make([]uint64, 2*n), make([]uint64, 2*n)
	b.Run("copy-320KB", func(b *testing.B) {
		for b.Loop() {
			copy(dst, src)
		}
		reportScan(b, n, 16)
	})
}

// reportScan adds ns a row and GB/s to a benchmark whose iteration is
// one pass over n rows of rowBytes bytes.
func reportScan(b *testing.B, n, rowBytes int) {
	perRow := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(n)
	b.ReportMetric(perRow, "ns/row")
	b.ReportMetric(float64(rowBytes)/perRow, "GB/s")
}
