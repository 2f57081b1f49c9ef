package bench

import (
	"fmt"

	"gph/internal/core"
)

// Ablation isolates the contribution of each GPH design choice the
// paper motivates (DESIGN.md §4): the full configuration against
// variants with one ingredient removed or replaced — refinement off,
// random initialization, round-robin allocation. Columns are average
// query times; the full configuration should win or tie everywhere,
// with the gaps widening on skewed data.
func (r *Runner) Ablation() error {
	type variant struct {
		name string
		opts func(base core.Options) core.Options
	}
	variants := []variant{
		{"full", func(o core.Options) core.Options { return o }},
		{"-refine", func(o core.Options) core.Options { o.NoRefine = true; return o }},
		{"-greedy(RS)", func(o core.Options) core.Options {
			o.Init = core.InitRandom
			return o
		}},
		{"RR-alloc", func(o core.Options) core.Options { o.Allocator = core.AllocRR; return o }},
	}
	for _, name := range []string{"gist", "pubchem"} {
		c := r.load(name)
		fmt.Fprintf(r.cfg.Out, "[%s]\n", name)
		headers := []string{"tau"}
		for _, v := range variants {
			headers = append(headers, v.name+"(ms)")
		}
		t := newTable(r.cfg.Out, headers...)
		ixs := make([]*core.Index, len(variants))
		for vi, v := range variants {
			base := core.Options{
				NumPartitions:    c.spec.m,
				MaxTau:           maxOf(c.spec.taus),
				Seed:             r.cfg.Seed,
				BuildParallelism: r.cfg.BuildParallelism,
			}
			ix, err := core.Build(c.data.Vectors, v.opts(base))
			if err != nil {
				return fmt.Errorf("ablation %s on %s: %w", v.name, name, err)
			}
			ixs[vi] = ix
		}
		for _, tau := range c.spec.taus {
			cells := []interface{}{tau}
			for _, ix := range ixs {
				nanos, _, err := timeSearch(ix, c, tau)
				if err != nil {
					return err
				}
				cells = append(cells, ms(nanos))
			}
			t.row(cells...)
		}
		t.flush()
	}
	return nil
}
