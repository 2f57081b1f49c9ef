package engine

import "gph/internal/bitvec"

// This file defines the optional capability interfaces the layers
// above an engine (the opener, GrowKNN) discover by type assertion.
// They live here for the same reason Streamer does: engine may import
// only substrate packages, and every implementation already imports
// engine for the core contract, so capabilities advertised here
// introduce no new edges in the package graph.

// Validator is implemented by engines whose loader can return before
// every check has run: GPH's leaves the content tier, which reads every
// arena byte, pending (the other engines' loaders finish their checking
// before they return). Validate runs what is pending now, for the
// opener to call before it shares the engine; left uncalled, the
// engine's first query runs it. The verdict is sticky either way.
type Validator interface {
	Validate() error
}

// GrowStats accounts one progressive-radius kNN query: how many radius
// rounds ran, the final radius, and how many distinct candidates were
// distance-ranked. Engines with an incremental grower fill it; the
// generic GrowKNN reduction cannot (it restarts the search per radius,
// which is exactly what GrowSearcher exists to avoid).
type GrowStats struct {
	// Radii is the number of radius rounds executed.
	Radii int
	// FinalTau is the radius at which the search stopped.
	FinalTau int
	// Candidates is the number of distinct candidates distance-ranked
	// across all rounds (Len() when the grower degenerated to a scan).
	Candidates int
	// Scanned reports that the grower answered by verified full scan.
	Scanned bool
	// CNScans is Stats.CNScans summed over all rounds: growers that keep
	// their CN rows across radii estimate each partition in full at
	// most once per query.
	CNScans int
	// KeyScans and KeysScanned are Stats' fields of the same names,
	// summed over all rounds.
	KeyScans    int
	KeysScanned int
}

// GrowSearcher is implemented by engines that answer kNN by
// incremental radius growth: candidates and distances accumulate
// across rounds instead of being recomputed per radius, so the cost is
// one search at the final radius plus ranking — not O(radii × search).
// GrowKNN delegates to it when present.
type GrowSearcher interface {
	SearchGrow(q bitvec.Vector, k int) ([]Neighbor, GrowStats, error)
}
