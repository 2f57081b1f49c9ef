package bitvec

import "gph/internal/cpu"

// pextMissing is internal/cpu's verdict on the PEXT arm, read once at
// package init: empty where Projector.Project may take it.
var pextMissing = cpu.PEXTMissing

// pextProject runs n pieces from pieces over the vector words at q into
// the arena at out: for each, PEXT of its vector word under its mask,
// shifted to its bit and or-ed into a register that starts over at every
// piece landing on bit 0, and stored to its output word — the store of
// a word's last piece is the one that stays. Exactly the output words
// the pieces name are written; n ≥ 1.
//
//go:noescape
func pextProject(q *uint64, pieces *pextPiece, n int, out *uint64)
