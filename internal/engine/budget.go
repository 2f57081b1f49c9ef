package engine

import (
	"math"

	"gph/internal/cpu"
	"gph/internal/verify"
)

// The index side of the price list (DESIGN.md §1, "What a plan costs"),
// in key-scan steps, the unit verify.Codes.ScanSteps prices the scan in.
// They are measurements, not tunables, and every engine that weighs its
// index against the scan reads them from here. On keys of ⌈w/8⌉ bytes
// (a step of 0.85–1.05 ns) BenchmarkPlanPrices reads a probe at 8.0–8.5
// steps and a candidate at 9.5.
const (
	// ProbePrice prices one posting-index probe: step to the next
	// signature of the ball, hash it, read its bucket's directory offsets
	// and the keys between them.
	ProbePrice = 8
	// CandidatePrice prices one posting of a generated candidate list:
	// decoded into the dedup bitmap and, if new, fetched from the packed
	// arena and verified. It is Eq. 1's c_access + α·c_verify.
	CandidatePrice = 9
)

// Budget is an exact engine's guard on its own candidate generation: it
// opens at what a verified scan of the arena costs at the query's τ, the
// engine charges it for every probe and posting, and once it is
// overdrawn the engine drops what it has collected and scans. A query
// then spends at most the scan's price plus the overdrawing charge on
// the index, and at most twice that price in all. No clock is read: an
// index routes a query the same way in every run.
type Budget struct{ left int64 }

// ScanBudget opens a budget at codes.ScanSteps(tau). It reads the route
// cpu.Force put in force: a forced scan opens it overdrawn, and a forced
// index opens it at the most a budget can hold, so that only a ball the
// engine will not enumerate is refused.
func ScanBudget(codes *verify.Codes, tau int) Budget {
	switch cpu.Forced().Route {
	case cpu.RouteScan:
		return Budget{left: -1}
	case cpu.RouteIndex:
		return Budget{left: math.MaxInt64}
	}
	return Budget{left: codes.ScanSteps(tau)}
}

// Probes charges n posting-index probes and reports whether the budget
// still holds; n may be a ball too large to enumerate.
func (b *Budget) Probes(n uint64) bool {
	if b.left < 0 || n > uint64(b.left)/ProbePrice {
		b.left = -1
		return false
	}
	b.left -= int64(n) * ProbePrice
	return true
}

// Postings charges n decoded postings and reports whether the budget
// still holds.
func (b *Budget) Postings(n int) bool {
	b.left -= int64(n) * CandidatePrice
	return b.left >= 0
}

// Spent reports whether a charge has overdrawn the budget.
func (b *Budget) Spent() bool { return b.left < 0 }
