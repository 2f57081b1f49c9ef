package plan

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"gph/internal/bitvec"
	"gph/internal/engine"
)

// Mode selects the routing policy.
type Mode uint8

const (
	// ModeAdaptive (the default) leaves an engine that decides
	// scan-or-index itself alone and routes the others by a calibrated
	// crossover radius.
	ModeAdaptive Mode = iota
	// ModeIndex always takes the built index path.
	ModeIndex
	// ModeScan always takes the linear-scan path when the engine
	// exposes one (debugging and calibration baseline).
	ModeScan
	// ModeOff disables the planner entirely; NewPlanner returns nil.
	ModeOff
)

// ParseMode maps the -plan flag vocabulary to a Mode. The empty
// string selects adaptive.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "adaptive":
		return ModeAdaptive, nil
	case "index":
		return ModeIndex, nil
	case "scan":
		return ModeScan, nil
	case "off":
		return ModeOff, nil
	}
	return ModeOff, fmt.Errorf("plan: unknown mode %q (want adaptive, index, scan, or off)", s)
}

// String returns the flag spelling of m.
func (m Mode) String() string {
	switch m {
	case ModeAdaptive:
		return "adaptive"
	case ModeIndex:
		return "index"
	case ModeScan:
		return "scan"
	}
	return "off"
}

// Route is the planner's per-query decision.
type Route uint8

const (
	// RouteIndex executes the query through the built index.
	RouteIndex Route = iota
	// RouteScan answers by verified linear scan over the engine's
	// packed arena (engine.Scannable).
	RouteScan
)

// Planner routes queries of an engine that has no cost guard of its own
// (MIH, HmSearch) to a verified scan of its arena from the crossover
// radius Calibrate measured; an engine registered as SelfDeciding (GPH,
// linscan) always gets RouteIndex. Route reads only atomics, so it is
// safe on the lock-free search hot path; Calibrate runs off it (at
// build, configure, load and compact time). A nil *Planner is a disabled
// planner: Route always answers RouteIndex.
type Planner struct {
	mode                Mode
	calibrated          atomic.Bool
	scanNanosPerRowBits atomic.Uint64 // float64 bits: verified scan, per row
	crossoverTau        atomic.Int32  // scan from this tau up; 0 = never scan

	routedIndex atomic.Int64
	routedScan  atomic.Int64
}

// NewPlanner builds a planner for mode; ModeOff yields nil (the
// disabled planner).
func NewPlanner(mode Mode) *Planner {
	if mode == ModeOff {
		return nil
	}
	return &Planner{mode: mode}
}

// Stats is the planner's observable state, surfaced in /stats and
// /metrics. Cache is filled by the owner (the planner does not hold
// the cache). Nothing is measured for a SelfDeciding engine:
// ScanNanosPerRow and CrossoverTau stay 0.
type Stats struct {
	Mode            string     `json:"mode"`
	Calibrated      bool       `json:"calibrated"`
	RoutedIndex     int64      `json:"routed_index"`
	RoutedScan      int64      `json:"routed_scan"`
	ScanNanosPerRow float64    `json:"scan_nanos_per_row"`
	CrossoverTau    int32      `json:"crossover_tau"`
	Cache           CacheStats `json:"cache"`
}

// Stats snapshots the planner counters. Nil-safe: a disabled planner
// reports mode "off".
func (p *Planner) Stats() Stats {
	if p == nil {
		return Stats{Mode: ModeOff.String()}
	}
	return Stats{
		Mode:            p.mode.String(),
		Calibrated:      p.calibrated.Load(),
		RoutedIndex:     p.routedIndex.Load(),
		RoutedScan:      p.routedScan.Load(),
		ScanNanosPerRow: math.Float64frombits(p.scanNanosPerRowBits.Load()),
		CrossoverTau:    p.crossoverTau.Load(),
	}
}

// Route decides how to execute one query against e: the mode, then one
// load of the crossover radius, 0 ("never scan") until Calibrate finds
// one. No locks, no allocations, and under ModeAdaptive no call on e.
//
//gph:hotpath
func (p *Planner) Route(e engine.Engine, q bitvec.Vector, tau int) Route {
	if p == nil || p.mode == ModeIndex {
		return RouteIndex
	}
	if p.mode == ModeScan {
		return p.scanIfAble(e)
	}
	if ct := p.crossoverTau.Load(); ct > 0 && tau >= int(ct) {
		return p.scanIfAble(e)
	}
	p.routedIndex.Add(1)
	return RouteIndex
}

// scanIfAble routes to the scan path when the engine supports it
// (packed arena + exact semantics), falling back to the index path.
//
//gph:hotpath
func (p *Planner) scanIfAble(e engine.Engine) Route {
	if _, ok := e.(engine.Scannable); ok && e.Exact() {
		p.routedScan.Add(1)
		return RouteScan
	}
	p.routedIndex.Add(1)
	return RouteIndex
}

// Calibrate finds the crossover radius of an exact engine with a packed
// arena and no cost guard: probing doubling radii from dims/8 with a few
// real rows as queries (real rows have realistic selectivity), the
// smallest tau at which the engine's Search loses to a verified scan of
// the arena, 0 if it never does. It publishes that and the scan rate at
// the last radius probed. A SelfDeciding engine is not timed at all. Runs off
// the hot path: call it after build, configure, load or compaction —
// never per query. Nil-safe, and a no-op for engines without a packed
// arena (no scan route exists).
func (p *Planner) Calibrate(e engine.Engine) {
	if p == nil || e == nil || e.Len() == 0 {
		return
	}
	if reg, _ := engine.Lookup(e.Name()); reg.SelfDeciding {
		p.calibrated.Store(true)
		return
	}
	sc, ok := e.(engine.Scannable)
	if !ok || !e.Exact() {
		return
	}
	codes := sc.Codes()
	n := codes.Len()
	var qs []bitvec.Vector
	for i := 0; i < n && len(qs) < 4; i += max(n/4, 1) {
		qs = append(qs, e.Vector(int32(i)))
	}
	maxTau := min(e.MaxTau(), e.Dims())
	buf := make([]int32, 0, n)
	cross := 0
	for t := min(max(e.Dims()/8, 1), maxTau); ; t = min(2*t, maxTau) {
		scanNanos := fastestPass(func() {
			for _, q := range qs {
				buf = codes.AppendWithin(q, t, buf[:0])
			}
		})
		p.scanNanosPerRowBits.Store(math.Float64bits(float64(scanNanos) / float64(len(qs)*n)))
		var searchErr error
		indexNanos := fastestPass(func() {
			for _, q := range qs {
				if _, err := e.Search(q, t); err != nil {
					searchErr = err
				}
			}
		})
		if searchErr == nil && indexNanos > scanNanos {
			cross = t
		}
		if searchErr != nil || cross > 0 || t >= maxTau {
			break
		}
	}
	p.crossoverTau.Store(int32(cross))
	p.calibrated.Store(true)
}

// fastestPass runs pass once untimed (a cold arena is not what is being
// measured), then returns the fastest of three timed runs in nanoseconds.
func fastestPass(pass func()) int64 {
	pass()
	best := int64(math.MaxInt64)
	for range 3 {
		t0 := time.Now()
		pass()
		best = min(best, time.Since(t0).Nanoseconds())
	}
	return best
}
