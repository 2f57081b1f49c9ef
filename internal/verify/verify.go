// Package verify implements the batched verification layer shared by
// every engine's refine phase: candidate vectors are laid out in a
// single contiguous row-major arena (Codes) and verified in batches
// with unrolled math/bits.OnesCount64 loops instead of one
// bitvec.Hamming call per candidate. The kernels early-abort each
// distance accumulation once tau is exceeded, keep candidate order,
// and allocate nothing, so the engines' pooled-scratch discipline is
// preserved.
//
// Threshold semantics match bitvec.Vector.HammingWithin exactly:
// tau < 0 admits nothing and tau >= dims admits everything; the
// differential tests in this package pin the agreement at those
// boundaries for every batch size and block offset.
//
// The word-at-a-time path (Distance) is the reference implementation;
// the batch entry points call the unrolled loops of portable.go. The
// sequential scan (AppendWithin, AppendWithinRange) alone has a second
// implementation on AVX-512 VPOPCNTDQ kernels (within_amd64.go,
// within_amd64.s), chosen by what CPUID reports and by nothing else:
// the w = 1 kernel over one-word rows, and for wider rows of any width
// over a contiguous copy of their word 0 (a partial distance above tau
// already says no), survivors finished by distWithin; where survivors
// are dense, the w = 2 and w = 4 row kernels or the portable loops. The
// portable scan is the reference, and the only path on any other CPU.
package verify

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"gph/internal/bitvec"
	"gph/internal/cpu"
)

// BlockSize is the number of candidates a streaming consumer should
// hand to the block kernels at a time: large enough to amortize the
// dispatch and keep the unrolled loops fed, small enough that a block
// of distances fits in a stack buffer.
const BlockSize = 256

// chunkRows is how many rows one call into a vector kernel covers
// (scanKernel): a 512-byte hit bitmap on the stack, and — assembly
// cannot be preempted — at most a microsecond or two during which a GC
// stop waits on the scanning goroutine, however large the arena.
const chunkRows = 4096

// What scanColumn's hand-off costs, as BenchmarkScanKernels measures it
// (its "w=…/τ=…/row" and "/column" lines) — prices, not tunables.
const (
	// probeRows is the first chunk of a call and the first after a
	// back-off: a dense query wastes a 4 KB column pass per back-off, not
	// a chunk's 32 — a pass whose every block takes withinBits1's hit path,
	// 0.13 ns a row ("every-block-hits") where a block without a hit costs
	// 0.085 ("τ=dense": column within 2 % of row at every width).
	probeRows = 512

	// denseOneIn: a chunk with more than one word-0 survivor in this
	// many rows goes to the row path. A gathered distWithin is 7–9 ns a
	// survivor (≈ 28 from DRAM) and the column pass 0.085 ns a row, so at
	// one in 64 the two stages cost 0.19–0.23 ns a row against the w = 2
	// row kernel's 0.26 ("τ=threshold", one in 110: column 0.15 ns a row at
	// every width). Break-even in cache is nearer one in 47, from DRAM one
	// in 80; 64 sits between.
	denseOneIn = 64

	// backoffChunks chunks after a dense one go to the row path unasked:
	// density belongs to (q, τ) far more than to a place in the arena.
	backoffChunks = 8
)

// What a scan costs in internal/core's unit, the key-scan step: bytes
// read over bytes a step moves, by BenchmarkScanKernels' lines, fitted at
// a step of 1.10–1.25 ns. The step is 0.85–1.05 ns on keys of ⌈w/8⌉
// bytes, and there a dense row reads 0.19 steps against its 0.25 at
// w = 2 and 0.57 against 0.5 at w = 4, a sparse one 0.08–0.12 against
// 0.125 (BenchmarkPlanPrices): inside the spread the constants were
// fitted over.
const (
	// "τ=dense/row" reads 16 B a row in 0.25–0.28 ns (w = 2) and 32 B in
	// 0.55–0.58 (w = 4): 64 B a step. "w=2/τ=sparse/column" reads 8 B a row
	// in 0.085 ns, ≈ 110 B a step: a sparse scan is priced a half above
	// what it costs, and which queries a second constant would move to the
	// scan is ROADMAP 2(b)'s to judge.
	stepBytesCached = 64
	// "column-8MB": 330–360 µs over n = 10⁶ (16 MB row arenas read alike).
	stepBytesMemory = 27
	// cachedBytes: a scan that reads more finds its bytes gone from L2.
	cachedBytes = 1 << 20

	// sparseThrough samples sampleQueries × sampleRows row pairs.
	sampleQueries, sampleRows = 64, 256
)

// Codes is an immutable packed copy of a vector collection: all
// vectors' words in one contiguous arena, row-major, so batch
// verification streams through memory instead of chasing one slice
// header per candidate. Row i occupies words[i*w : (i+1)*w].
type Codes struct {
	n     int
	dims  int
	w     int // words per vector
	words []uint64

	// sketch[i] is words[i*w]: the word-0 column scanColumn reads first.
	// Derived state, never persisted, built by the first scan that wants
	// it. sketchReady's release-store publishes sketch to the
	// acquire-load in ensureSketch; sketchMu serializes the one build.
	sketch      []uint64
	sketchReady atomic.Bool
	sketchMu    sync.Mutex

	// sparse is sparseThrough's answer plus 2, 0 until the first call: a
	// pure function of the arena, so racing first callers store one value.
	sparse atomic.Int32
}

// Pack copies data into a fresh arena. All vectors must share one
// dimensionality (engines validate this at build time; Pack panics
// otherwise, matching bitvec's precondition style).
func Pack(data []bitvec.Vector) *Codes {
	if len(data) == 0 {
		return &Codes{}
	}
	dims := data[0].Dims()
	w := (dims + bitvec.WordBits - 1) / bitvec.WordBits
	c := &Codes{n: len(data), dims: dims, w: w, words: make([]uint64, len(data)*w)}
	for i, v := range data {
		if v.Dims() != dims {
			panic(fmt.Sprintf("verify: vector %d has %d dims, want %d", i, v.Dims(), dims))
		}
		copy(c.words[i*w:(i+1)*w], v.Words())
	}
	return c
}

// Wrap builds Codes over an existing row-major arena without copying:
// words must hold exactly n rows of wordsFor(dims) words each, laid
// out as Pack would write them. The zero-copy open path uses it to make
// one (possibly mapped, read-only) arena the index's only copy of its
// vectors: the kernels scan it and Row hands out views of it — both only
// read, so a borrowed arena is safe. The arena is adopted as-is; callers
// must not mutate it afterwards.
func Wrap(n, dims int, words []uint64) (*Codes, error) {
	if n == 0 && len(words) == 0 {
		return &Codes{}, nil
	}
	if n < 0 || dims <= 0 {
		return nil, fmt.Errorf("verify: cannot wrap %d vectors of %d dims", n, dims)
	}
	w := (dims + bitvec.WordBits - 1) / bitvec.WordBits
	if len(words) != n*w {
		return nil, fmt.Errorf("verify: arena holds %d words, want %d (%d vectors × %d words)", len(words), n*w, n, w)
	}
	return &Codes{n: n, dims: dims, w: w, words: words}, nil
}

// Len returns the number of packed vectors.
func (c *Codes) Len() int { return c.n }

// Row returns row id as a vector viewing the arena: nothing is copied,
// and the caller must not modify it. The view is made from lengths
// alone, its tail word unread — over an arena that was not packed here,
// rows with bits set past Dims are its caller's to reject (CheckTails).
func (c *Codes) Row(id int32) bitvec.Vector {
	return bitvec.FromWordsSharedUnchecked(c.dims, c.words[int(id)*c.w:(int(id)+1)*c.w])
}

// CheckTails returns an error naming the first row with bits set past
// Dims, which every distance to it would count: a wrapped arena (Wrap)
// is trusted only after it. It reads the last word of each row, and
// nothing when Dims is a whole number of words.
func (c *Codes) CheckTails() error {
	if c.dims%bitvec.WordBits == 0 {
		return nil
	}
	for id := range c.n {
		if err := c.Row(int32(id)).CheckTail(); err != nil {
			return fmt.Errorf("vector %d corrupt: %w", id, err)
		}
	}
	return nil
}

// Dims returns the dimensionality of the packed vectors.
func (c *Codes) Dims() int { return c.dims }

// SizeBytes returns the arena size in bytes.
func (c *Codes) SizeBytes() int64 { return int64(len(c.words)) * 8 }

// SketchBytes returns the heap bytes of the word-0 column: 0 until a
// scan has built it, 8 a row after, over a borrowed (mapped) arena too.
func (c *Codes) SketchBytes() int64 {
	if !c.sketchReady.Load() {
		return 0
	}
	return int64(len(c.sketch)) * 8
}

// ensureSketch returns the word-0 column, built on the first call.
//
//gph:hotpath
func (c *Codes) ensureSketch() []uint64 {
	if !c.sketchReady.Load() {
		c.buildSketchOnce()
	}
	return c.sketch
}

// buildSketchOnce: concurrent first scans serialize and all but one find it ready.
func (c *Codes) buildSketchOnce() {
	c.sketchMu.Lock()
	if !c.sketchReady.Load() {
		c.sketch = make([]uint64, c.n)
		for i := range c.sketch {
			c.sketch[i] = c.words[i*c.w]
		}
		c.sketchReady.Store(true)
	}
	c.sketchMu.Unlock()
}

// Distance returns the Hamming distance between q and row id, one
// word at a time with no unrolling or early abort. It is the kernels'
// reference implementation: the differential tests assert every batch
// kernel agrees with it on every row.
func (c *Codes) Distance(q bitvec.Vector, id int32) int {
	qw := q.Words()
	row := c.words[int(id)*c.w : (int(id)+1)*c.w]
	d := 0
	for j, w := range row {
		d += bits.OnesCount64(w ^ qw[j])
	}
	return d
}

// FilterWithin keeps the ids whose vectors lie within Hamming
// distance tau of q, filtering ids in place (order preserved) and
// returning the kept prefix. It allocates nothing. Boundary taus
// follow HammingWithin: tau < 0 keeps nothing, tau >= Dims keeps
// everything.
//
//gph:hotpath
func (c *Codes) FilterWithin(q bitvec.Vector, tau int, ids []int32) []int32 {
	if tau < 0 {
		return ids[:0]
	}
	if tau >= c.dims {
		return ids
	}
	return filterPortable(c, q.Words(), tau, ids)
}

// AppendWithin appends the ids of every packed vector within Hamming
// distance tau of q to dst, in ascending id order, and returns the
// extended slice. It is the full-scan form of FilterWithin (linscan,
// scan guards).
//
//gph:hotpath
func (c *Codes) AppendWithin(q bitvec.Vector, tau int, dst []int32) []int32 {
	return c.AppendWithinRange(q, tau, 0, c.n, dst)
}

// AppendWithinRange is AppendWithin over rows [lo, hi), which must lie
// within [0, Len()]: a streamed scan takes it a block at a time. Under a
// kernel Arm, rows of two words or more go through the word-0 column
// (scanColumn); one-word rows, and everything under the portable Arm,
// take the row path (scanRows).
//
//gph:hotpath
func (c *Codes) AppendWithinRange(q bitvec.Vector, tau, lo, hi int, dst []int32) []int32 {
	if tau < 0 {
		return dst
	}
	if tau >= c.dims {
		for id := lo; id < hi; id++ {
			dst = append(dst, int32(id))
		}
		return dst
	}
	if Arm() != cpu.KernelPortable && c.w >= 2 {
		dst, _ = c.scanColumn(q.Words(), tau, lo, hi, dst)
		return dst
	}
	return c.scanRows(q.Words(), tau, lo, hi, dst)
}

// ScanSteps prices AppendWithin at threshold tau in key-scan steps, by
// the path AppendWithinRange will take under the Arm in force.
func (c *Codes) ScanSteps(tau int) int64 {
	kernel, through := Arm() != cpu.KernelPortable, -1
	if kernel && c.w >= 2 {
		through = c.sparseThrough()
	}
	return scanSteps(c.n, c.w, tau, through, kernel)
}

// scanSteps is ScanSteps as a pure function of n rows of w words that
// scanColumn keeps to the column through threshold through: with the
// kernels a one-word or sparse scan reads 8 B a row and a dense one 8w B
// where a row kernel exists; every other scan is scanPortable's, (2 + w)/3
// steps a row (0.79 / 1.7 / 2.4 / 6 ns at w = 1 / 2 / 4 / 14).
func scanSteps(n, w, tau, through int, kernel bool) int64 {
	sparse := w == 1 || tau <= through
	if !kernel || (!sparse && w != 2 && w != 4) {
		return int64(n) * int64(2+w) / 3
	}
	read := int64(n) * 8
	if !sparse {
		read *= int64(w)
	}
	if read > cachedBytes {
		return read / stepBytesMemory
	}
	return read / stepBytesCached
}

// sparseThrough returns the largest tau at which a scan of c is sparse by
// scanColumn's own rule — at most one row in denseOneIn survives word 0 —
// or −1, read off the word-0 distances of a fixed strided sample of row
// pairs (stored rows are where queries come from). No clock is read: an
// index routes a query the same way in every run.
func (c *Codes) sparseThrough() int {
	if v := c.sparse.Load(); v != 0 {
		return int(v) - 2
	}
	// The sampled rows' words 0 are read out of the arena once, and the
	// pairs counted into four histograms in turn: one histogram's
	// increments of a distance would wait on each other's stores. A row
	// is not paired with itself — its pair counted and taken out again.
	var rows [sampleRows]uint64
	var hist [4][bitvec.WordBits + 1]int32
	qStep, rStep := (c.n+sampleQueries-1)/sampleQueries, (c.n+sampleRows-1)/sampleRows
	nr := 0
	for b := rStep / 2; b < c.n; b += rStep {
		rows[nr] = c.words[b*c.w]
		nr++
	}
	pairs, self := 0, int32(0)
	for a := 0; a < c.n; a += qStep {
		q, r := c.words[a*c.w], rows[:nr]
		for ; len(r) >= 4; r = r[4:] {
			hist[0][bits.OnesCount64(q^r[0])]++
			hist[1][bits.OnesCount64(q^r[1])]++
			hist[2][bits.OnesCount64(q^r[2])]++
			hist[3][bits.OnesCount64(q^r[3])]++
		}
		for _, row := range r {
			hist[0][bits.OnesCount64(q^row)]++
		}
		pairs += nr
		if a >= rStep/2 && (a-rStep/2)%rStep == 0 {
			self++
		}
	}
	pairs -= int(self)
	hist[0][0] -= self
	through, within := -1, 0
	for d := 0; d < bitvec.WordBits; d++ {
		if within += int(hist[0][d] + hist[1][d] + hist[2][d] + hist[3][d]); within*denseOneIn > pairs {
			break
		}
		through = d
	}
	c.sparse.Store(int32(through) + 2)
	return through
}

// scanRows answers rows [lo, hi) on the row-major arena alone: the row
// kernel for 1, 2 and 4 words under a kernel Arm, the portable loops
// (the reference) everywhere else. Callers have resolved 0 ≤ tau < dims.
//
//gph:hotpath
func (c *Codes) scanRows(qw []uint64, tau, lo, hi int, dst []int32) []int32 {
	rows := c.words[lo*c.w : hi*c.w]
	if Arm() != cpu.KernelPortable && (c.w == 1 || c.w == 2 || c.w == 4) {
		return scanKernel(rows, c.w, qw, tau, lo, dst)
	}
	// scanPortable numbers the rows it is handed from zero.
	first := len(dst)
	dst = scanPortable(&Codes{n: hi - lo, dims: c.dims, w: c.w, words: rows}, qw, tau, dst)
	if lo != 0 {
		for i := first; i < len(dst); i++ {
			dst[i] += int32(lo)
		}
	}
	return dst
}

// DistancesInto writes the Hamming distance between q and ids[j] into
// dst[j] (gather form, for scattered candidate blocks). len(dst) must
// be >= len(ids). No early abort: streaming consumers need the true
// distance of every survivor anyway.
//
//gph:hotpath
func (c *Codes) DistancesInto(q bitvec.Vector, ids []int32, dst []int32) {
	gatherPortable(c, q.Words(), ids, dst)
}

// DistancesSeqInto writes the Hamming distance between q and row
// base+j into dst[j] (sequential form, for full scans). The range
// [base, base+len(dst)) must lie within [0, Len()).
//
//gph:hotpath
func (c *Codes) DistancesSeqInto(q bitvec.Vector, base int, dst []int32) {
	seqPortable(c, q.Words(), base, dst)
}
