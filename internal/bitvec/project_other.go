//go:build !amd64

package bitvec

// pextMissing is never empty here: the PEXT arm is amd64's
// (project_amd64.go), so Project always gathers and the call compiles
// away.
const pextMissing = "a PEXT projector for this GOARCH"

func pextProject(q *uint64, pieces *pextPiece, n int, out *uint64) {
	panic("bitvec: no " + pextMissing)
}
