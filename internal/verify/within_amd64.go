package verify

import (
	"math/bits"
	"unsafe"

	"gph/internal/cpu"
)

// The within-τ kernels of within_amd64.s. One primitive at three row
// widths (w = 1, 2, 4 words): for each of groups groups of eight
// consecutive rows starting at rows, store at out the byte whose bit k
// says row 8g+k lies within Hamming distance tau of the w query words
// at q — XOR against the query replicated across a zmm, VPOPCNTQ, an
// even/odd permute-and-add that leaves eight row distances in row
// order, an unsigned compare with tau, one mask byte. Exactly
// groups·8·w words are read (at any 8-byte alignment) and groups bytes
// written, ascending, so the bytes are little-endian bits of the
// []uint64 the driver reads; groups = 0 touches nothing. Leaf functions
// without preemption points: the caller bounds groups.
//
// withinBits1 is the inner loop of every scan (scanColumn), so it takes
// four groups an iteration, compares once for the four and leaves the 0–3
// groups over to withinBits1x1, the one-group loop. Both return how many
// bits they set, so a driver reads no bitmap that holds none: 160 KB of
// column in 1.70 µs (BenchmarkScanKernelsColumn "unrolled-x4"; 1.93
// comparing every group, 1.34 for the loads and XORs alone), 2.7 where
// every block holds a hit ("every-block-hits").

//go:noescape
func withinBits1(rows *uint64, groups int, q *uint64, tau uint64, out *uint64) int

//go:noescape
func withinBits1x1(rows *uint64, groups int, q *uint64, tau uint64, out *uint64) int

//go:noescape
func withinBits2(rows *uint64, groups int, q *uint64, tau uint64, out *uint64)

//go:noescape
func withinBits4(rows *uint64, groups int, q *uint64, tau uint64, out *uint64)

// kernelMissing names the first thing this CPU or OS lacks of what the
// module's AVX-512 kernels execute, or is empty when scanKernel can run:
// internal/cpu's one verdict for them all, read once at package init;
// nothing else selects the kernel (DESIGN.md §12).
var kernelMissing = cpu.KernelMissing

// Arm returns the scan arm in force: the one cpu.Force set, else the
// assembly where kernelMissing is empty and the portable loops where it
// is not. Under cpu.KernelGo the drivers call withinBitsGo where they
// would call the assembly, so that their hand-off, bitmap clearing and
// hit-count early-out run on a host without the kernels too.
func Arm() cpu.Kernel {
	if k := cpu.Forced().Kernel; k != cpu.KernelAssembly || kernelMissing == "" {
		return k
	}
	return cpu.KernelPortable
}

// withinBitsGo is the Go reference of the four kernels, at row width w:
// the same groups bytes written to out, ascending, and the bits it set
// counted — what withinBits1 and withinBits1x1 return; withinBits2 and
// withinBits4 count nothing.
func withinBitsGo(w int, rows *uint64, groups int, q *uint64, tau uint64, out *uint64) int {
	rs, qs := unsafe.Slice(rows, groups*8*w), unsafe.Slice(q, w)
	bitmap := unsafe.Slice((*byte)(unsafe.Pointer(out)), groups)
	hits := 0
	for g := range bitmap {
		var b byte
		for k := range 8 {
			d := 0
			for j, word := range rs[(8*g+k)*w : (8*g+k+1)*w] {
				d += bits.OnesCount64(word ^ qs[j])
			}
			if uint64(d) <= tau {
				b |= 1 << k
				hits++
			}
		}
		bitmap[g] = b
	}
	return hits
}

// scanKernel appends base+i for every row i of words (rows of w ∈
// {1, 2, 4} words) within tau of qw, ascending: the kernels answer
// whole groups of eight rows a chunk at a time, the bitmap is read back
// with TrailingZeros64 — not at all where withinBits1 counted no hit —
// and the n mod 8 tail goes through distWithin.
// Callers have resolved 0 ≤ tau < dims and an Arm other than the
// portable one.
//
//gph:hotpath
func scanKernel(words []uint64, w int, qw []uint64, tau, base int, dst []int32) []int32 {
	// The Go reference unless the assembly runs here, whatever the
	// setting became since the caller read it.
	ref := Arm() != cpu.KernelAssembly
	n := len(words) / w
	whole := n &^ 7
	q := &qw[:w][0] // the kernels read w query words
	var hits [chunkRows / 64]uint64
	for lo := 0; lo < whole; lo += chunkRows {
		groups := min(whole-lo, chunkRows) / 8
		// The kernel writes groups bytes; only the last word they reach
		// can be left holding bits of the chunk before.
		hits[(groups-1)/8] = 0
		rows := &words[lo*w]
		switch {
		case ref:
			if withinBitsGo(w, rows, groups, q, uint64(tau), &hits[0]) == 0 {
				continue
			}
		case w == 1:
			if withinBits1(rows, groups, q, uint64(tau), &hits[0]) == 0 {
				continue
			}
		case w == 2:
			withinBits2(rows, groups, q, uint64(tau), &hits[0])
		case w == 4:
			withinBits4(rows, groups, q, uint64(tau), &hits[0])
		}
		for i, m := range hits[:(groups+7)/8] {
			for ; m != 0; m &= m - 1 {
				dst = append(dst, int32(base+lo+i*64+bits.TrailingZeros64(m)))
			}
		}
	}
	for id := whole; id < n; id++ {
		if distWithin(words[id*w:(id+1)*w], qw, tau) {
			dst = append(dst, int32(base+id))
		}
	}
	return dst
}

// scanColumn appends the ids of rows [lo, hi) of c within tau of qw,
// ascending, reading word 0 of every row first: a partial distance above
// tau rules a row out, so stage 1 is withinBits1 over c's word-0 column —
// 8 bytes a row whatever c.w — and stage 2 finishes each survivor on the
// row arena with distWithin. A chunk whose survivors are dense goes to
// scanRows instead, with the backoffChunks after it; the second result
// is how many rows went that way (tests assert the hand-off ran; callers
// drop it). Callers have resolved 0 ≤ tau < dims and an Arm other than
// the portable one; c.w ≥ 2.
//
//gph:hotpath
func (c *Codes) scanColumn(qw []uint64, tau, lo, hi int, dst []int32) ([]int32, int) {
	sketch, w, q := c.ensureSketch(), c.w, &qw[0]
	_ = sketch[lo:hi] // a range outside [0, Len()] panics here, as scanRows' does
	// As in scanKernel: the Go reference unless the assembly runs here.
	ref := Arm() != cpu.KernelAssembly
	whole := lo + (hi-lo)&^7
	var hits [chunkRows / 64]uint64
	byRows := 0
	for at, rows := lo, probeRows; at < whole; {
		end := min(at+rows, whole)
		groups := (end - at) / 8
		// The kernel writes groups bytes; only the last word they reach
		// can be left holding bits of the chunk before.
		hits[(groups-1)/8] = 0
		col := sketch[at:end] // the words the kernel reads, bounds-checked
		var survivors int
		if ref {
			survivors = withinBitsGo(1, &col[0], groups, q, uint64(tau), &hits[0])
		} else {
			survivors = withinBits1(&col[0], groups, q, uint64(tau), &hits[0])
		}
		rows = chunkRows
		switch {
		case survivors == 0: // almost every chunk of a selective scan: no bitmap to read
		case survivors*denseOneIn > end-at:
			end = min(end+backoffChunks*chunkRows, whole)
			dst = c.scanRows(qw, tau, at, end, dst)
			byRows += end - at
			rows = probeRows // the verdict past the back-off is unknown again
		default:
			for i, m := range hits[:(groups+7)/8] {
				for ; m != 0; m &= m - 1 {
					id := at + i*64 + bits.TrailingZeros64(m)
					if distWithin(c.words[id*w:(id+1)*w], qw, tau) {
						dst = append(dst, int32(id))
					}
				}
			}
		}
		at = end
	}
	for id := whole; id < hi; id++ {
		if distWithin(c.words[id*w:(id+1)*w], qw, tau) {
			dst = append(dst, int32(id))
		}
	}
	return dst, byRows
}
