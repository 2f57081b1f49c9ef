package plan

import (
	"fmt"
	"sync/atomic"

	"gph/internal/bitvec"
	"gph/internal/engine"
)

// Mode selects the routing policy.
type Mode uint8

const (
	// ModeAdaptive (the default) leaves every query to its engine: each
	// exact engine weighs its index against a scan of its arena itself.
	ModeAdaptive Mode = iota
	// ModeScan answers by a verified scan of the arena when the engine
	// exposes one, whatever the engine would have chosen (tests and
	// debugging: the route forced from outside).
	ModeScan
)

// ParseMode maps the -plan flag vocabulary to a Mode. The empty
// string selects adaptive.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "adaptive":
		return ModeAdaptive, nil
	case "scan":
		return ModeScan, nil
	}
	return ModeAdaptive, fmt.Errorf("plan: unknown mode %q (want adaptive|scan)", s)
}

// String returns the flag spelling of m.
func (m Mode) String() string {
	if m == ModeScan {
		return "scan"
	}
	return "adaptive"
}

// Route is the planner's per-query decision.
type Route uint8

const (
	// RouteIndex executes the query through the engine's own Search.
	RouteIndex Route = iota
	// RouteScan answers by verified linear scan over the engine's
	// packed arena (engine.Scannable).
	RouteScan
)

// Planner decides nothing an engine can decide: under ModeAdaptive every
// query goes to the engine's own Search, which stops at the scan's price
// itself (gph's allocation loop, MIH's and HmSearch's engine.Budget,
// linscan trivially). What is left is the forced scan of ModeScan and
// two counters. Route touches only the mode and an atomic, so it is safe
// on the lock-free search hot path.
type Planner struct {
	mode        Mode
	routedIndex atomic.Int64
	routedScan  atomic.Int64
}

// NewPlanner builds a planner for mode.
func NewPlanner(mode Mode) *Planner { return &Planner{mode: mode} }

// Stats is the planner's observable state, surfaced in /stats and
// /metrics. Cache is filled by the owner (the planner does not hold
// the cache).
type Stats struct {
	Mode        string     `json:"mode"`
	RoutedIndex int64      `json:"routed_index"`
	RoutedScan  int64      `json:"routed_scan"`
	Cache       CacheStats `json:"cache"`
}

// Stats snapshots the planner counters.
func (p *Planner) Stats() Stats {
	return Stats{
		Mode:        p.mode.String(),
		RoutedIndex: p.routedIndex.Load(),
		RoutedScan:  p.routedScan.Load(),
	}
}

// Route says how to execute one query against e: the engine's own
// Search, unless the mode forces a scan and e has an arena to scan and
// exact semantics. No locks, no allocations, and under ModeAdaptive no
// call on e.
//
//gph:hotpath
func (p *Planner) Route(e engine.Engine, q bitvec.Vector, tau int) Route {
	if p.mode == ModeScan {
		if _, ok := e.(engine.Scannable); ok && e.Exact() {
			p.routedScan.Add(1)
			return RouteScan
		}
	}
	p.routedIndex.Add(1)
	return RouteIndex
}

// Calibrate does nothing: benchmark/layers.go still calls it; it goes with ROADMAP 1's benchmark PR.
func (p *Planner) Calibrate(engine.Engine) {}
