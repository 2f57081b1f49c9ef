package shard

import (
	"gph/internal/plan"
)

// ConfigurePlan (re)configures the query planner and result cache.
// mode is the planner policy ("adaptive" — also the empty string —
// "index", "scan", or "off"); cacheBytes bounds the result cache
// (0 disables it). NewEngine calls this from Options.PlanMode /
// Options.CacheBytes; call it directly after Load to enable planning
// and caching on a restored index. Not safe concurrently with
// searches — configure before serving traffic.
func (s *Index) ConfigurePlan(mode string, cacheBytes int64) error {
	m, err := plan.ParseMode(mode)
	if err != nil {
		return err
	}
	s.planner = plan.NewPlanner(m)
	s.cache = plan.NewCache(cacheBytes)
	s.engID = plan.EngineID(s.engine)
	s.calibratePlanner()
	return nil
}

// calibratePlanner calibrates the planner against the first populated
// shard's built engine (shards are content-hash balanced, so one
// shard's profile represents them all). Runs at build, configure,
// load, and compaction time — never on the query path. A no-op while
// no shard has a built engine: the uncalibrated planner routes
// everything to the index path.
func (s *Index) calibratePlanner() {
	if s.planner == nil {
		return
	}
	for i := range s.shards {
		if sh := s.shards[i].Load(); sh != nil && sh.built != nil {
			s.planner.Calibrate(sh.built)
			return
		}
	}
}

// PlanStats reports the planner's routing counters, calibration state
// and cache counters. ok=false when both planner and cache are
// disabled (mode "off", no cache configured).
func (s *Index) PlanStats() (plan.Stats, bool) {
	if s.planner == nil && s.cache == nil {
		return plan.Stats{Mode: plan.ModeOff.String()}, false
	}
	st := s.planner.Stats()
	st.Cache = s.cache.Stats()
	return st, true
}

// Epoch returns the index-wide snapshot epoch: the number of snapshot
// swaps (Insert, Delete, compaction, WAL replay) since construction.
// The result cache keys on it; it is also a cheap churn gauge.
func (s *Index) Epoch() uint64 { return s.epoch.Load() }
