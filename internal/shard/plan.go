package shard

import (
	"errors"
	"fmt"
)

// ConfigurePlan accepts the one configuration an index has: mode
// "adaptive" or empty — every query goes to the shard engines, which
// weigh their index against a scan themselves — and cacheBytes 0, since
// the index caches no results (gph-server's -cache-size bounds the
// server's cache). It is kept for benchmark/serve.go, which passes
// ("adaptive", 0), and goes with ROADMAP 1(f)'s benchmark PR.
func (s *Index) ConfigurePlan(mode string, cacheBytes int64) error {
	if mode != "" && mode != "adaptive" {
		return fmt.Errorf("shard: unknown plan mode %q (want adaptive)", mode)
	}
	if cacheBytes != 0 {
		return errors.New("shard: an index caches no results; gph-server -cache-size bounds the result cache")
	}
	return nil
}

// Epoch returns the index-wide snapshot epoch: the number of snapshot
// swaps (Insert, Delete, compaction, WAL replay) since construction.
// gph-server's result cache keys on it; it is also a cheap churn gauge.
func (s *Index) Epoch() uint64 { return s.epoch.Load() }
