package bench

import (
	"fmt"
	"time"

	"gph/internal/bitvec"
	"gph/internal/engine"
	"gph/internal/hmsearch"
	"gph/internal/partalloc"
	"gph/internal/partition"
)

// The comparison experiments measure every algorithm through the
// shared engine contract — engine.SearchStats carries the uniform
// candidate accounting — so this file reduces to registry lookups
// plus each system's arrangement policy (the paper equips the
// competitors with the OS rearrangement, their strongest
// configuration).

// queryStats is the per-measurement aggregate the tables report.
type queryStats struct {
	candidates  int
	sumPostings int64
	results     int
}

// system builds an engine for a dataset; perTau systems must be
// rebuilt when tau changes (HmSearch, PartAlloc, LSH — exactly the
// systems whose index size varies with τ in Fig. 6).
type system struct {
	name   string
	perTau bool
	build  func(data []bitvec.Vector, tau int, seed int64) (engine.Engine, error)
}

// osArrangement samples the data and computes the OS rearrangement
// for m partitions.
func osArrangement(data []bitvec.Vector, m int, seed int64) *partition.Partitioning {
	sample := partition.SampleRows(data, 500, seed)
	return partition.OS(sample, data[0].Dims(), m)
}

// gphSystem builds GPH with the harness defaults: greedy init +
// refinement, paper-recommended m. buildPar bounds
// the build worker pool (≤ 0 selects GOMAXPROCS).
func gphSystem(m, maxTau, buildPar int) system {
	return system{name: "GPH", build: func(data []bitvec.Vector, _ int, seed int64) (engine.Engine, error) {
		return engine.Build("gph", data, engine.BuildOptions{
			NumPartitions: m, MaxTau: maxTau, Seed: seed, BuildParallelism: buildPar,
		})
	}}
}

// mihSystem builds MIH with the OS arrangement, the strongest
// configuration the paper grants the competitors.
func mihSystem(m int) system {
	return system{name: "MIH", build: func(data []bitvec.Vector, _ int, seed int64) (engine.Engine, error) {
		return engine.Build("mih", data, engine.BuildOptions{
			NumPartitions: m, Arrangement: osArrangement(data, m, seed),
		})
	}}
}

func hmSystem() system {
	return system{name: "HmSearch", perTau: true, build: func(data []bitvec.Vector, tau int, seed int64) (engine.Engine, error) {
		m := hmsearch.NumPartitions(data[0].Dims(), tau)
		return engine.Build("hmsearch", data, engine.BuildOptions{
			MaxTau: tau, Arrangement: osArrangement(data, m, seed),
		})
	}}
}

func paSystem() system {
	return system{name: "PartAlloc", perTau: true, build: func(data []bitvec.Vector, tau int, seed int64) (engine.Engine, error) {
		m := partalloc.NumPartitions(data[0].Dims(), tau)
		return engine.Build("partalloc", data, engine.BuildOptions{
			MaxTau: tau, Arrangement: osArrangement(data, m, seed),
		})
	}}
}

func lshSystem() system {
	return system{name: "LSH", perTau: true, build: func(data []bitvec.Vector, tau int, seed int64) (engine.Engine, error) {
		return engine.Build("lsh", data, engine.BuildOptions{MaxTau: tau, Seed: seed})
	}}
}

// measure runs all queries against an engine, returning the average
// per-query wall time and summed accounting.
func measure(e engine.Engine, queries []bitvec.Vector, tau int) (avgTime time.Duration, agg queryStats, err error) {
	start := time.Now()
	for _, q := range queries {
		_, st, qerr := e.SearchStats(q, tau)
		if qerr != nil {
			return 0, queryStats{}, qerr
		}
		agg.candidates += st.Candidates
		agg.sumPostings += st.SumPostings
		agg.results += st.Results
	}
	if len(queries) == 0 {
		return 0, agg, fmt.Errorf("bench: no queries")
	}
	return time.Since(start) / time.Duration(len(queries)), agg, nil
}
