package shard

import (
	"gph/internal/plan"
)

// ConfigurePlan (re)configures the query planner and result cache.
// mode is the planner policy: "adaptive" (also the empty string) leaves
// every query to the shard engines, "scan" forces a verified scan of
// their arenas; cacheBytes bounds the result cache (0 disables it).
// NewEngine calls this from Options.PlanMode / Options.CacheBytes; call
// it directly after Load to enable caching on a restored index. Not
// safe concurrently with searches — configure before serving traffic.
func (s *Index) ConfigurePlan(mode string, cacheBytes int64) error {
	m, err := plan.ParseMode(mode)
	if err != nil {
		return err
	}
	s.planner = plan.NewPlanner(m)
	s.cache = plan.NewCache(cacheBytes)
	s.engID = plan.EngineID(s.engine)
	return nil
}

// PlanStats reports the planner's mode and routing counters and the
// cache's counters (all zero with no cache configured).
func (s *Index) PlanStats() plan.Stats {
	st := s.planner.Stats()
	st.Cache = s.cache.Stats()
	return st
}

// Epoch returns the index-wide snapshot epoch: the number of snapshot
// swaps (Insert, Delete, compaction, WAL replay) since construction.
// The result cache keys on it; it is also a cheap churn gauge.
func (s *Index) Epoch() uint64 { return s.epoch.Load() }
