package core

import (
	"fmt"
	"math"

	"gph/internal/bitvec"
)

// SearchTanimoto returns the ids of all indexed vectors x with
// Tanimoto similarity T(x, q) = |x∩q| / |x∪q| ≥ t, implementing the
// paper's future-work direction of extending the general pigeonhole
// machinery to other similarity constraints (the cheminformatics
// conversion of reference [43]).
//
// The constraint is converted to a Hamming search: from
// |x∩q| = (|x|+|q|−H)/2 and |x∪q| = (|x|+|q|+H)/2,
//
//	T(x, q) ≥ t  ⇔  H(x, q) ≤ (1−t)/(1+t) · (|x| + |q|),
//
// and since T ≥ t also forces |x| ≤ |q|/t, the radius
// τ = ⌊(1−t)/(1+t) · |q|·(1 + 1/t)⌋ is a complete filter. Candidates
// from the Hamming search are re-verified against the exact Tanimoto
// constraint, so results are exact.
func (ix *Index) SearchTanimoto(q bitvec.Vector, t float64) ([]int32, error) {
	if q.Dims() != ix.dims {
		return nil, fmt.Errorf("core: query has %d dims, index has %d", q.Dims(), ix.dims)
	}
	if t <= 0 || t > 1 {
		return nil, fmt.Errorf("core: Tanimoto threshold %v out of (0, 1]", t)
	}
	nq := float64(q.PopCount())
	tau := int(math.Floor((1 - t) / (1 + t) * nq * (1 + 1/t)))
	if tau >= ix.dims {
		tau = ix.dims - 1
	}
	if tau < 0 {
		tau = 0
	}
	ids, err := ix.Search(q, tau)
	if err != nil {
		return nil, err
	}
	out := ids[:0]
	for _, id := range ids {
		if tanimoto(q, ix.codes.Row(id)) >= t {
			out = append(out, id)
		}
	}
	return out, nil
}

// tanimoto computes |x∩q|/|x∪q| from popcounts and the Hamming
// distance; two all-zero vectors have similarity 1 by convention.
func tanimoto(a, b bitvec.Vector) float64 {
	na, nb := a.PopCount(), b.PopCount()
	h := a.Hamming(b)
	union := (na + nb + h) / 2
	if union == 0 {
		return 1
	}
	return float64(na+nb-h) / 2 / float64(union)
}
