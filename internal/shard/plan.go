package shard

import (
	"fmt"

	"gph/internal/plan"
)

// ConfigurePlan (re)configures the result cache: cacheBytes bounds it (0
// disables it). mode must be "adaptive" or empty — every query goes to
// the shard engines, which weigh their index against a scan themselves;
// the parameter stays for benchmark/serve.go, which passes "adaptive".
// NewEngine calls this from Options.CacheBytes; call it directly after
// Load to enable caching on a restored index. Not safe concurrently
// with searches — configure before serving traffic.
func (s *Index) ConfigurePlan(mode string, cacheBytes int64) error {
	if mode != "" && mode != "adaptive" {
		return fmt.Errorf("shard: unknown plan mode %q (want adaptive)", mode)
	}
	s.cache = plan.NewCache(cacheBytes)
	s.engID = plan.EngineID(s.engine)
	return nil
}

// PlanStats reports the result cache's counters (all zero with no cache
// configured).
func (s *Index) PlanStats() plan.Stats { return plan.Stats{Cache: s.cache.Stats()} }

// Epoch returns the index-wide snapshot epoch: the number of snapshot
// swaps (Insert, Delete, compaction, WAL replay) since construction.
// The result cache keys on it; it is also a cheap churn gauge.
func (s *Index) Epoch() uint64 { return s.epoch.Load() }
