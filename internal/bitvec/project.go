package bitvec

import (
	"fmt"

	"gph/internal/cpu"
)

// Projector projects a vector onto every part of a partitioning at once,
// into one arena of words: part i's projection is ⌈len(parts[i])/64⌉
// words, the parts one after another in order — the layout Views carves.
// It is built once per index and read by every query, concurrently.
//
// It has two arms with one answer. Where every part's dims ascend and
// the CPU runs PEXT at full speed (internal/cpu), each part is the bits
// of a few masks over the vector's words, in order: an extract a
// (part, vector word) pair, shifted to where the bits land — split so
// that each piece fills one output word — by one assembly loop over all
// of them (pextProject). Anywhere else, and for any part that does not
// ascend, it gathers bit by bit as ProjectInto does, which is the
// reference.
type Projector struct {
	dims  int
	parts [][]int
	words int
	// pieces are the extracts in arena order, nil where a part's dims do
	// not ascend or there is nothing to project.
	pieces []pextPiece
}

// pextPiece is one extract: the bits of vector word src under mask,
// packed and shifted to global bit at of the arena — word at/64, bit
// at%64. A piece never crosses an output word, and the first piece of
// every output word lands at its bit 0, so at%64 == 0 starts a new word.
// pextProject reads the layout: 16 bytes, mask at 0, src at 8, at at 12.
type pextPiece struct {
	mask uint64
	src  uint32
	at   uint32
}

// NewProjector returns the projector of dims-dimensional vectors onto
// parts, which it keeps: the caller must not modify them afterwards. A
// dim outside [0, dims) panics, here rather than on a query.
func NewProjector(dims int, parts [][]int) *Projector {
	p := &Projector{dims: dims, parts: parts}
	ascending := true
	for i, part := range parts {
		for j, d := range part {
			if d < 0 || d >= dims {
				panic(fmt.Sprintf("bitvec: part %d holds dimension %d of %d", i, d, dims))
			}
			if j > 0 && d <= part[j-1] {
				ascending = false
			}
		}
		p.words += wordsFor(len(part))
	}
	if ascending {
		p.pieces = p.cutPieces()
	}
	return p
}

// cutPieces cuts every part into extracts: a run of dims in one vector
// word, cut again where its bits would cross an output word.
func (p *Projector) cutPieces() []pextPiece {
	var pieces []pextPiece
	base := 0 // the part's first arena bit
	for _, part := range p.parts {
		for j := 0; j < len(part); {
			src, start := part[j]/WordBits, j
			var mask uint64
			for ; j < len(part) && part[j]/WordBits == src && (j == start || j%WordBits != 0); j++ {
				mask |= 1 << (uint(part[j]) % WordBits)
			}
			pieces = append(pieces, pextPiece{mask: mask, src: uint32(src), at: uint32(base + start)})
		}
		base += WordBits * wordsFor(len(part))
	}
	return pieces
}

// Words returns how many words an arena for Project holds.
func (p *Projector) Words() int { return p.words }

// Arm names the arm Project takes on this CPU: "pext" or "gather".
func (p *Projector) Arm() string {
	if p.pieces != nil && pextOn() {
		return "pext"
	}
	return "gather"
}

// pextOn reports whether the CPU runs PEXT at full speed and cpu.Force
// has not put the gather in force.
func pextOn() bool { return pextMissing == "" && cpu.Forced().Projector == cpu.ProjectorPEXT }

// Views returns an arena for Project and each part's projection as a
// vector viewing it — what a query keeps in its pooled scratch.
func (p *Projector) Views() ([]uint64, []Vector) {
	arena := make([]uint64, p.words)
	views := make([]Vector, len(p.parts))
	rest := arena
	for i, part := range p.parts {
		n := wordsFor(len(part))
		views[i] = Vector{n: len(part), words: rest[:n:n]}
		rest = rest[n:]
	}
	return arena, views
}

// Project writes the projection of v onto every part into arena, which
// must hold Words() words; every word is overwritten, tail bits cleared.
//
//gph:hotpath
func (p *Projector) Project(v Vector, arena []uint64) {
	if v.n != p.dims || len(arena) != p.words {
		panic(fmt.Sprintf("bitvec: projecting %d dims into %d words, want %d and %d", v.n, len(arena), p.dims, p.words))
	}
	if len(p.pieces) > 0 && pextOn() {
		pextProject(&v.words[0], &p.pieces[0], len(p.pieces), &arena[0])
		return
	}
	k := 0
	for _, part := range p.parts {
		for lo := 0; lo < len(part); lo += WordBits {
			arena[k] = v.gather(part[lo:min(lo+WordBits, len(part))])
			k++
		}
	}
}
