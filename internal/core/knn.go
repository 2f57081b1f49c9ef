package core

import (
	"cmp"
	"fmt"
	"slices"

	"gph/internal/bitvec"
	"gph/internal/engine"
)

// Neighbor is one k-nearest-neighbours result; the struct lives in
// internal/engine, shared by every engine's SearchKNN.
type Neighbor = engine.Neighbor

// SearchKNN returns the k nearest neighbours of q by Hamming distance,
// ties broken by ascending id. It delegates to engine.GrowKNN — the
// shared progressive range expansion every engine uses — which in
// turn takes the incremental GrowSearcher path (SearchGrow below):
// candidates and distances accumulate across radius rounds instead of
// being recomputed per radius, so GPH's kNN semantics cannot drift from
// the conformance-tested contract while paying one search at the final
// radius, not O(radii × search).
func (ix *Index) SearchKNN(q bitvec.Vector, k int) ([]Neighbor, error) {
	return engine.GrowKNN(ix, q, k)
}

// SearchGrow implements engine.GrowSearcher: kNN by incremental
// radius growth over one pooled scratch. The candidate-dedup bitmap
// and candidate list persist across rounds, so each radius pays only
// for the signatures of its larger ball and the distances of its
// *new* candidates — not a full re-search plus re-verification per
// radius, which is what the generic GrowKNN reduction costs. When a
// round's allocation trips the scan guard (or the radius cap is
// reached short of k), the query degenerates to direct selection over
// the full distance profile, exactly like linscan.
func (ix *Index) SearchGrow(q bitvec.Vector, k int) ([]engine.Neighbor, engine.GrowStats, error) {
	var gs engine.GrowStats
	if err := ix.ensureValidated(); err != nil {
		return nil, gs, err
	}
	if err := engine.CheckKNN(q, ix.dims, k); err != nil {
		return nil, gs, fmt.Errorf("core: %w", err)
	}
	if k > ix.count {
		k = ix.count
	}
	if k == 0 {
		return []engine.Neighbor{}, gs, nil
	}
	maxTau := ix.dims - 1
	if maxTau < 1 {
		gs = engine.GrowStats{Candidates: ix.count, Scanned: true}
		return ix.knnByScan(q, k), gs, nil
	}

	s := ix.getScratch()
	var stats Stats
	var dists []int32 // dists[i] is the exact distance of s.cand.IDs[i]
	done := 0         // prefix of s.cand.IDs already distance-ranked
	tau := 1
	for {
		gs.Radii++
		gs.FinalTau = tau
		scanned, err := ix.gather(q, tau, s, &stats, false)
		gs.CNScans, gs.KeyScans, gs.KeysScanned = stats.CNScans, stats.KeyScans, stats.KeysScanned
		if err != nil {
			ix.putScratch(s)
			return nil, gs, err
		}
		if scanned {
			ix.putScratch(s)
			gs.Candidates = ix.count
			gs.Scanned = true
			return ix.knnByScan(q, k), gs, nil
		}
		if add := len(s.cand.IDs) - done; add > 0 {
			if cap(dists) < len(s.cand.IDs) {
				next := make([]int32, len(s.cand.IDs))
				copy(next, dists[:done])
				dists = next
			} else {
				dists = dists[:len(s.cand.IDs)]
			}
			ix.codes.DistancesInto(q, s.cand.IDs[done:], dists[done:])
			done = len(s.cand.IDs)
		}
		within := 0
		for _, d := range dists {
			if int(d) <= tau {
				within++
			}
		}
		if within >= k {
			break
		}
		if tau >= maxTau {
			// Grown to the radius cap and still short of k: only a
			// verified scan can complete the answer.
			ix.putScratch(s)
			gs.Candidates = ix.count
			gs.Scanned = true
			return ix.knnByScan(q, k), gs, nil
		}
		tau *= 2
		if tau > maxTau {
			tau = maxTau
		}
	}

	// At least k candidates sit within tau, and the candidate set is a
	// superset of every vector within tau, so ranking the candidates
	// by (distance, id) yields the true top-k.
	gs.Candidates = done
	out := make([]engine.Neighbor, done)
	for i := 0; i < done; i++ {
		out[i] = engine.Neighbor{ID: s.cand.IDs[i], Distance: int(dists[i])}
	}
	ix.putScratch(s)
	sortNeighbors(out)
	if len(out) > k {
		out = out[:k]
	}
	return out, gs, nil
}

// knnByScan answers kNN (0 < k ≤ n) by selection over the full distance
// profile of the packed arena — the scan route's kNN, shared by
// SearchGrow's fallback paths. Distances are integers in [0, dims], so
// counting them finds the distance the k-th neighbour lies at; every
// row nearer than that is kept, the rows at it in id order until k are,
// and only those k are sorted.
func (ix *Index) knnByScan(q bitvec.Vector, k int) []engine.Neighbor {
	dst := make([]int32, ix.count)
	ix.codes.DistancesSeqInto(q, 0, dst)
	hist := make([]int, ix.dims+1)
	for _, d := range dst {
		hist[d]++
	}
	cut, nearer := 0, 0
	for nearer+hist[cut] < k {
		nearer += hist[cut]
		cut++
	}
	ties := k - nearer
	out := make([]engine.Neighbor, 0, k)
	for id, d := range dst {
		if int(d) > cut || (int(d) == cut && ties == 0) {
			continue
		}
		if int(d) == cut {
			ties--
		}
		out = append(out, engine.Neighbor{ID: int32(id), Distance: int(d)})
	}
	sortNeighbors(out)
	return out
}

func sortNeighbors(out []engine.Neighbor) {
	slices.SortFunc(out, func(a, b engine.Neighbor) int {
		return cmp.Or(cmp.Compare(a.Distance, b.Distance), cmp.Compare(a.ID, b.ID))
	})
}
