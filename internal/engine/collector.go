package engine

import (
	"slices"

	"gph/internal/bitvec"
	"gph/internal/invindex"
	"gph/internal/verify"
)

// Collector is the filter-and-refine candidate pipeline every probing
// engine shares: a seen-bitmap deduplicating posting ids into a
// candidate list, and the verify → sort → copy-out tail that turns
// candidates into a result slice the caller owns. Engines embed one
// in their pooled per-query scratch and Reset it per query, so the
// whole pipeline is allocation-free after warm-up (Reset only grows
// the bitmap, FinishVerifiedCodes only allocates the returned slice).
type Collector struct {
	// Set is the candidate set itself: a probe may decode posting lists
	// straight into it (invindex.Frozen's Collect methods).
	Set invindex.IDSet
}

// Reset prepares the collector for a query over a collection of n
// vectors: the bitmap is sized (or cleared) for n ids and the
// candidate list emptied.
func (c *Collector) Reset(n int) {
	words := (n + 63) / 64
	if cap(c.Set.Seen) < words {
		c.Set.Seen = make([]uint64, words)
	} else {
		c.Set.Seen = c.Set.Seen[:words]
		clear(c.Set.Seen)
	}
	c.Set.IDs = c.Set.IDs[:0]
}

// Collect adds id to the candidate set unless already present.
func (c *Collector) Collect(id int32) {
	w, b := id/64, uint(id)%64
	if c.Set.Seen[w]>>b&1 == 0 {
		c.Set.Seen[w] |= 1 << b
		c.Set.IDs = append(c.Set.IDs, id)
	}
}

// Candidates returns the number of distinct candidates collected.
func (c *Collector) Candidates() int { return len(c.Set.IDs) }

// CandidateIDs returns the collected candidate ids in probe order.
// The slice aliases the collector's pooled scratch: it is valid until
// the next Reset and must not be retained past it. Streaming searches
// hand it to StreamVerified, which sorts and verifies it in place.
func (c *Collector) CandidateIDs() []int32 { return c.Set.IDs }

// FinishVerifiedCodes verifies every candidate against the true Hamming
// distance on the batch kernels over a packed arena — filtered in place
// by verify.Codes.FilterWithin (unrolled popcounts, early abort) — sorts
// the survivors by id and copies them into an exact-size slice the
// caller owns.
func (c *Collector) FinishVerifiedCodes(q bitvec.Vector, tau int, codes *verify.Codes) []int32 {
	results := codes.FilterWithin(q, tau, c.Set.IDs)
	slices.Sort(results)
	out := make([]int32, len(results))
	copy(out, results)
	return out
}
