package engine

import (
	"iter"
	"slices"

	"gph/internal/bitvec"
	"gph/internal/verify"
)

// Streamer is optionally implemented by engines whose search can
// yield results incrementally, so first-result latency is decoupled
// from result-set size. The sequence contract:
//
//   - results arrive in ascending id order, each within tau, with its
//     exact Hamming distance — draining the stream yields exactly the
//     ids Search returns (the conformance suite pins this for every
//     registered engine);
//   - on failure the sequence yields a single (Neighbor{}, err) and
//     stops; a non-nil error is never followed by more results;
//   - the sequence is single-use and must not be iterated twice.
type Streamer interface {
	SearchIter(q bitvec.Vector, tau int) iter.Seq2[Neighbor, error]
}

// Stream returns a streaming view of e's range search: the engine's
// native SearchIter when it implements Streamer, otherwise a fallback
// that runs Search eagerly on first iteration and replays the results
// with their distances. The fallback preserves the sequence contract,
// just not the latency benefit, so layers above (shard merge,
// gph-server) can stream from every registered engine.
func Stream(e Engine, q bitvec.Vector, tau int) iter.Seq2[Neighbor, error] {
	if s, ok := e.(Streamer); ok {
		return s.SearchIter(q, tau)
	}
	return func(yield func(Neighbor, error) bool) {
		ids, err := e.Search(q, tau)
		if err != nil {
			yield(Neighbor{}, err)
			return
		}
		for _, id := range ids {
			if !yield(Neighbor{ID: id, Distance: q.Hamming(e.Vector(id))}, nil) {
				return
			}
		}
	}
}

// StreamVerified is the shared streaming tail for probing engines:
// it sorts the deduplicated candidates ascending (in place, over the
// caller's pooled slice), then verifies them in BlockSize batches
// against the packed arena, yielding each survivor with its distance
// as soon as its block is verified. Reports false when the consumer
// stopped early. The caller must not reuse cands until iteration ends.
func StreamVerified(codes *verify.Codes, q bitvec.Vector, tau int, cands []int32, yield func(Neighbor, error) bool) bool {
	slices.Sort(cands)
	var dist [verify.BlockSize]int32
	for len(cands) > 0 {
		blk := cands
		if len(blk) > verify.BlockSize {
			blk = blk[:verify.BlockSize]
		}
		codes.DistancesInto(q, blk, dist[:len(blk)])
		for j, id := range blk {
			if int(dist[j]) <= tau {
				if !yield(Neighbor{ID: id, Distance: int(dist[j])}, nil) {
					return false
				}
			}
		}
		cands = cands[len(blk):]
	}
	return true
}

// StreamScan is the streaming form of a verified full scan (linscan,
// scan-guard fallbacks): the arena is scanned a BlockSize range at a
// time by the same kernel a drained scan uses
// (verify.Codes.AppendWithinRange), and only the rows it keeps have
// their distance taken. Matches are yielded in ascending id order;
// reports false when the consumer stopped early.
func StreamScan(codes *verify.Codes, q bitvec.Vector, tau int, yield func(Neighbor, error) bool) bool {
	var hits [verify.BlockSize]int32
	n := codes.Len()
	for base := 0; base < n; base += verify.BlockSize {
		for _, id := range codes.AppendWithinRange(q, tau, base, min(base+verify.BlockSize, n), hits[:0]) {
			if !yield(Neighbor{ID: id, Distance: codes.Distance(q, id)}, nil) {
				return false
			}
		}
	}
	return true
}
