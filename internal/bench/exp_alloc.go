package bench

import (
	"fmt"
	"time"

	"gph/internal/alloc"
	"gph/internal/core"
)

// Fig3 reproduces Fig. 3: the DP allocator of Algorithm 1 against the
// round-robin baseline, in estimated cost (candidate numbers under
// the cost model) and measured query time, on the same partitioning.
// The paper's shape: DP ≪ RR, with the gap widening with skew (on
// PubChem RR approaches a sequential scan).
func (r *Runner) Fig3() error {
	t := newTable(r.cfg.Out, "dataset", "tau", "cost-RR", "cost-DP", "time-RR(ms)", "time-DP(ms)", "speedup")
	for _, name := range []string{"sift", "gist", "pubchem"} {
		c := r.load(name)
		maxTau := maxOf(c.spec.taus)
		build := func(kind core.AllocatorKind) (*core.Index, error) {
			return core.Build(c.data.Vectors, core.Options{
				NumPartitions:    c.spec.m,
				Init:             core.InitRandom, // the experiment isolates allocation policy
				NoRefine:         true,
				Allocator:        kind,
				MaxTau:           maxTau,
				Seed:             r.cfg.Seed,
				BuildParallelism: r.cfg.BuildParallelism,
			})
		}
		dp, err := build(core.AllocDP)
		if err != nil {
			return err
		}
		rr, err := build(core.AllocRR)
		if err != nil {
			return err
		}
		for _, tau := range c.spec.taus {
			var costRR, costDP int64
			for _, q := range c.queries {
				table := dp.EstimateTable(q, tau)
				costDP += alloc.Allocate(table, alloc.Params{
					Tau: tau, Widths: dp.Partitioning().Widths(), SigWeight: -1,
				}).SumCN
				costRR += alloc.SumCN(table, alloc.RoundRobin(dp.Partitioning().NumParts(), tau), tau)
			}
			timeDP, _, err := timeSearch(dp, c, tau)
			if err != nil {
				return err
			}
			timeRR, _, err := timeSearch(rr, c, tau)
			if err != nil {
				return err
			}
			n := int64(len(c.queries))
			t.row(name, tau, costRR/n, costDP/n, ms(timeRR), ms(timeDP),
				fmt.Sprintf("%.1fx", float64(timeRR)/float64(max64(timeDP, 1))))
		}
	}
	t.flush()
	return nil
}

func timeSearch(ix *core.Index, c *cachedDataset, tau int) (avgNanos int64, results int64, err error) {
	start := time.Now()
	for _, q := range c.queries {
		ids, err := ix.Search(q, tau)
		if err != nil {
			return 0, 0, err
		}
		results += int64(len(ids))
	}
	return time.Since(start).Nanoseconds() / int64(len(c.queries)), results, nil
}
