package core

import (
	"io"

	"gph/internal/bitvec"
	"gph/internal/engine"
)

// Index implements the engine contract; every layer above (the public
// API, the shard layer, the server, the bench harness) can drive a GPH
// index through engine.Engine without knowing this package.
var _ engine.Engine = (*Index)(nil)

// EngineName is the registry name of the GPH engine.
const EngineName = "gph"

// Name returns the registry name "gph".
func (ix *Index) Name() string { return EngineName }

// Exact reports that GPH returns every true result (it is an exact
// filter-and-refine method).
func (ix *Index) Exact() bool { return true }

// MaxTau returns the largest accepted query threshold. GPH's structure
// does not depend on a build-time τ (Options.MaxTau only sizes the
// surrogate workload), so any threshold up to the dimensionality is
// answerable.
func (ix *Index) MaxTau() int { return ix.dims }

func init() {
	engine.Register(engine.Registration{
		Name:  EngineName,
		Exact: true,
		Magic: indexMagic,
		Build: func(data []bitvec.Vector, opts engine.BuildOptions) (engine.Engine, error) {
			return Build(data, Options{
				NumPartitions:    opts.NumPartitions,
				MaxTau:           opts.MaxTau,
				EnumBudget:       opts.EnumBudget,
				Seed:             opts.Seed,
				BuildParallelism: opts.BuildParallelism,
			})
		},
		Load: func(r io.Reader) (engine.Engine, error) { return LoadDeferred(r) },
	})
}
