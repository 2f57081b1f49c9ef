package core

import (
	"fmt"
	"io"

	"gph/internal/binio"
	"gph/internal/bitvec"
	"gph/internal/engine"
	"gph/internal/partition"
	"gph/internal/verify"
)

// MIHEngineName is the registry name of Multi-Index Hashing (Norouzi,
// Punjani, Fleet — CVPR 2012, reference [25] of the GPH paper), the
// strongest of the basic-pigeonhole baselines. MIH is a GPH build: m
// equi-width partitions (or the caller's arrangement), no refinement, and
// the round-robin vector — ⌊τ/m⌋ on the first τ − m·⌊τ/m⌋ + 1 partitions
// and one less on the rest, MIH's tighter search — under GPH's scan guard.
const MIHEngineName = "mih"

// mihMagic identifies the MIH file: enumeration budget, arrangement and
// the rows. The per-partition indexes are not written; Load rebuilds them
// (freeze), so a mapped open is a rebuild too.
const mihMagic = "GPHMH02\n"

// mihIndex is a GPH index that answers to the name "mih" and reads and
// writes MIH's file.
type mihIndex struct{ *Index }

// Name returns the registry name "mih".
func (m mihIndex) Name() string { return MIHEngineName }

// Save writes the MIH file: magic, enumeration budget, arrangement and
// the rows.
func (m mihIndex) Save(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.Magic(mihMagic)
	bw.Int64(m.opts.EnumBudget)
	engine.WritePartitioning(bw, m.parts)
	engine.WriteCodes(bw, m.codes)
	return bw.Flush()
}

// buildMIH builds MIH over data: the caller's arrangement, else m
// equi-width partitions — m from opts, else dims/16, at least 2 and at
// most dims — and an enumeration budget of 1<<20 unless opts sets one.
func buildMIH(data []bitvec.Vector, opts engine.BuildOptions) (engine.Engine, error) {
	dims, err := engine.CheckBuild(data)
	if err != nil {
		return nil, fmt.Errorf("mih: %w", err)
	}
	parts := opts.Arrangement
	if parts == nil {
		m := opts.NumPartitions
		if m == 0 {
			m = dims / 16
		}
		parts = partition.EquiWidth(dims, min(max(m, 2), dims))
	}
	budget := opts.EnumBudget
	if budget == 0 {
		budget = 1 << 20
	}
	return newMIH(verify.Pack(data), parts, budget, opts.BuildParallelism)
}

// loadMIH reads a file written by mihIndex.Save and rebuilds the index
// over the rows, which it keeps where they were read.
func loadMIH(r io.Reader) (engine.Engine, error) {
	br := binio.NewReader(r)
	br.Magic(mihMagic)
	budget := br.Int64()
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("mih: %w", err)
	}
	parts, err := engine.ReadPartitioning(br)
	if err != nil {
		return nil, fmt.Errorf("mih: %w", err)
	}
	codes, err := engine.ReadCodes(br)
	if err != nil {
		return nil, fmt.Errorf("mih: %w", err)
	}
	return newMIH(codes, parts, budget, 0)
}

// newMIH checks the arrangement and budget against the rows and freezes
// the index.
func newMIH(codes *verify.Codes, parts *partition.Partitioning, budget int64, parallelism int) (engine.Engine, error) {
	if err := engine.CheckArrangement(parts, codes.Dims()); err != nil {
		return nil, fmt.Errorf("mih: %w", err)
	}
	if budget <= 0 {
		return nil, fmt.Errorf("mih: implausible enumeration budget %d", budget)
	}
	opts := Options{NumPartitions: parts.NumParts(), Init: InitOriginal, NoRefine: true, Allocator: AllocRR,
		EnumBudget: budget, BuildParallelism: parallelism}
	ix, err := freeze(codes, parts, opts.withDefaults(codes.Dims()))
	if err != nil {
		return nil, err
	}
	return mihIndex{ix}, nil
}

func init() {
	engine.Register(engine.Registration{
		Name:  MIHEngineName,
		Exact: true,
		Magic: mihMagic,
		Build: buildMIH,
		Load:  loadMIH,
	})
}
