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
//
// The bitmap is all zero whenever the scratch holding the collector is
// in its pool, as core's is: whoever collected empties the set
// (Set.Reset, which clears only its members' words) on every way out —
// FinishVerifiedCodes before it compacts the candidates, the engine's
// putScratch on the scan fallback and the streaming tail. So a query
// pays for the bits it set, not for the collection's n/64 words.
type Collector struct {
	// Set is the candidate set itself: a probe may decode posting lists
	// straight into it (invindex.Frozen's Collect methods), or add ids
	// one at a time (invindex.IDSet.Add).
	Set invindex.IDSet
}

// Reset prepares the collector for a query over a collection of n
// vectors: the bitmap is sized for n ids — all zero already, by the
// invariant above — and the candidate list is empty.
func (c *Collector) Reset(n int) {
	if words := (n + 63) / 64; len(c.Set.Seen) != words {
		c.Set.Seen = make([]uint64, words)
	}
	c.Set.IDs = c.Set.IDs[:0]
}

// Candidates returns the number of distinct candidates collected.
func (c *Collector) Candidates() int { return len(c.Set.IDs) }

// CandidateIDs returns the collected candidate ids in probe order.
// The slice aliases the collector's pooled scratch: it is valid until
// the set is emptied and must not be retained past it. Streaming
// searches hand it to StreamVerified, which sorts and verifies it in
// place but keeps every id, so the set can still be emptied after.
func (c *Collector) CandidateIDs() []int32 { return c.Set.IDs }

// FinishVerifiedCodes empties the set and verifies every candidate it
// held against the true Hamming distance on the batch kernels over a
// packed arena — filtered in place by verify.Codes.FilterWithin — sorts
// the survivors by id and copies them into an exact-size slice the
// caller owns.
func (c *Collector) FinishVerifiedCodes(q bitvec.Vector, tau int, codes *verify.Codes) []int32 {
	cands := c.Set.IDs
	c.Set.Reset() // while cands still names every bit set
	results := codes.FilterWithin(q, tau, cands)
	slices.Sort(results)
	out := make([]int32, len(results))
	copy(out, results)
	return out
}
