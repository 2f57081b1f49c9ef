package plan

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"gph/internal/bitvec"
	"gph/internal/engine"
)

// Mode selects the routing policy.
type Mode uint8

const (
	// ModeAdaptive routes per query using calibrated cost coefficients
	// (the default).
	ModeAdaptive Mode = iota
	// ModeIndex always takes the built index path (planner disabled at
	// the routing level, counters still run).
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

// Planner routes queries between the index path and the scan path.
// Decisions read only atomics, so Route is safe on the lock-free
// search hot path; the coefficients behind them come from Calibrate,
// which runs off the hot path (at build, configure, and compact time).
// A nil *Planner is a disabled planner: Route always answers
// RouteIndex.
type Planner struct {
	mode       Mode
	calibrated atomic.Bool

	// Cost coefficients, stored as float64 bits for lock-free reads.
	scanNanosPerRowBits   atomic.Uint64 // verified scan, per row
	indexNanosPerUnitBits atomic.Uint64 // per unit of the engine's cost estimate
	estimateNanosBits     atomic.Uint64 // one EstimateSearchCost call (the DP)
	crossoverTau          atomic.Int32  // non-cost-model engines; 0 = never scan

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
// the cache).
type Stats struct {
	Mode              string     `json:"mode"`
	Calibrated        bool       `json:"calibrated"`
	RoutedIndex       int64      `json:"routed_index"`
	RoutedScan        int64      `json:"routed_scan"`
	ScanNanosPerRow   float64    `json:"scan_nanos_per_row"`
	IndexNanosPerUnit float64    `json:"index_nanos_per_unit"`
	EstimateNanos     float64    `json:"estimate_nanos"`
	CrossoverTau      int32      `json:"crossover_tau"`
	Cache             CacheStats `json:"cache"`
}

// Stats snapshots the planner counters. Nil-safe: a disabled planner
// reports mode "off".
func (p *Planner) Stats() Stats {
	if p == nil {
		return Stats{Mode: ModeOff.String()}
	}
	return Stats{
		Mode:              p.mode.String(),
		Calibrated:        p.calibrated.Load(),
		RoutedIndex:       p.routedIndex.Load(),
		RoutedScan:        p.routedScan.Load(),
		ScanNanosPerRow:   math.Float64frombits(p.scanNanosPerRowBits.Load()),
		IndexNanosPerUnit: math.Float64frombits(p.indexNanosPerUnitBits.Load()),
		EstimateNanos:     math.Float64frombits(p.estimateNanosBits.Load()),
		CrossoverTau:      p.crossoverTau.Load(),
	}
}

// Route decides how to execute one query against e. The decision
// reads only calibrated atomics plus (for cost-model engines) the
// engine's own cost prediction; it takes no locks and performs no
// allocations. Scan routing is offered only to exact engines with a
// packed arena — for everything else, and before calibration, the
// answer is RouteIndex.
//
//gph:hotpath
func (p *Planner) Route(e engine.Engine, q bitvec.Vector, tau int) Route {
	if p == nil || p.mode == ModeIndex {
		return RouteIndex
	}
	if p.mode == ModeScan {
		return p.scanIfAble(e)
	}
	if !p.calibrated.Load() {
		p.routedIndex.Add(1)
		return RouteIndex
	}
	if ce, ok := e.(engine.CostEstimator); ok {
		scanNanos := float64(e.Len()) * math.Float64frombits(p.scanNanosPerRowBits.Load())
		estNanos := math.Float64frombits(p.estimateNanosBits.Load())
		if cost, ok := ce.EstimateSearchCost(q, tau); ok {
			// The index route re-runs the DP inside the search, so its
			// predicted time carries the estimation cost as an intercept.
			indexNanos := estNanos + float64(cost)*math.Float64frombits(p.indexNanosPerUnitBits.Load())
			if scanNanos < indexNanos {
				return p.scanIfAble(e)
			}
		}
		p.routedIndex.Add(1)
		return RouteIndex
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

// Calibrate measures e's cost coefficients with a tiny probe (a few
// real rows as queries, ~1ms of wall time) and publishes them
// atomically. For cost-model engines (engine.CostEstimator — GPH) it
// fits nanoseconds-per-cost-unit so Route can compare the engine's
// own per-query prediction against the measured scan rate; for other
// scannable engines it probes doubling radii for the crossover tau
// beyond which the scan wins. Runs off the hot path: call it after
// build, configure, or compaction — never per query. Nil-safe, and a
// no-op for engines without a packed arena (no scan route exists).
func (p *Planner) Calibrate(e engine.Engine) {
	if p == nil || e == nil || e.Len() == 0 {
		return
	}
	sc, ok := e.(engine.Scannable)
	if !ok || !e.Exact() {
		return
	}
	codes := sc.Codes()
	n := codes.Len()

	// Probe queries: a handful of real rows spread through the
	// collection (real rows have realistic selectivity; synthetic
	// random queries would not).
	stride := n / 4
	if stride < 1 {
		stride = 1
	}
	var qs []bitvec.Vector
	for i := 0; i < n && len(qs) < 4; i += stride {
		qs = append(qs, e.Vector(int32(i)))
	}
	tau := e.Dims() / 8
	if tau < 1 {
		tau = 1
	}
	if mt := e.MaxTau(); tau > mt {
		tau = mt
	}

	// Scan coefficient: nanoseconds per row of verified scan, over
	// enough passes for a stable rate.
	buf := make([]int32, 0, n)
	rows := 0
	start := time.Now()
	for time.Since(start) < time.Millisecond || rows == 0 {
		for _, q := range qs {
			buf = codes.AppendWithin(q, tau, buf[:0])
			rows += n
		}
	}
	scanPerRow := float64(time.Since(start).Nanoseconds()) / float64(rows)
	p.scanNanosPerRowBits.Store(math.Float64bits(scanPerRow))

	if ce, ok := e.(engine.CostEstimator); ok {
		// The estimation intercept: what one EstimateSearchCost call (the
		// allocation DP) costs. Route charges it to the index path — the
		// search re-runs the DP.
		var estSamples []float64
		for _, q := range qs {
			t0 := time.Now()
			ce.EstimateSearchCost(q, tau)
			estSamples = append(estSamples, float64(time.Since(t0).Nanoseconds()))
		}
		sort.Float64s(estSamples)
		estNanos := estSamples[len(estSamples)/2]
		p.estimateNanosBits.Store(math.Float64bits(estNanos))

		// Fit nanoseconds per cost-model unit as the median of
		// (measured − intercept)/predicted over the probes. Without a
		// usable probe the unit is the one at which the engine's own
		// price for a scan of the collection comes to the scan just
		// measured.
		var ratios []float64
		for _, q := range qs {
			cost, ok := ce.EstimateSearchCost(q, tau)
			if !ok || cost <= 0 {
				continue
			}
			t0 := time.Now()
			if _, err := e.Search(q, tau); err != nil {
				continue
			}
			if net := float64(time.Since(t0).Nanoseconds()) - estNanos; net > 0 {
				ratios = append(ratios, net/float64(cost))
			}
		}
		unit := scanPerRow * float64(n) / float64(ce.ScanCost(tau))
		if len(ratios) > 0 {
			sort.Float64s(ratios)
			unit = ratios[len(ratios)/2]
		}
		p.indexNanosPerUnitBits.Store(math.Float64bits(unit))
	} else {
		// No per-query cost model: probe doubling radii for the
		// smallest tau at which the index path loses to the scan.
		// 0 means the index won at every probed radius (never scan).
		maxTau := e.MaxTau()
		if d := e.Dims(); d < maxTau {
			maxTau = d
		}
		cross := int32(0)
		scanNanos := scanPerRow * float64(n)
		for t := tau; ; {
			var indexNanos int64
			failed := false
			for _, q := range qs {
				t0 := time.Now()
				if _, err := e.Search(q, t); err != nil {
					failed = true
					break
				}
				indexNanos += time.Since(t0).Nanoseconds()
			}
			if failed {
				break
			}
			if float64(indexNanos)/float64(len(qs)) > scanNanos {
				cross = int32(t)
				break
			}
			if t >= maxTau {
				break
			}
			t *= 2
			if t > maxTau {
				t = maxTau
			}
		}
		p.crossoverTau.Store(cross)
	}
	p.calibrated.Store(true)
}
