package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gph/internal/alloc"
	"gph/internal/bitvec"
	"gph/internal/engine"
	"gph/internal/invindex"
	"gph/internal/partition"
	"gph/internal/verify"
)

// Index is an immutable GPH index over a vector collection. Build it
// once with Build; concurrent searches are safe afterwards.
type Index struct {
	dims  int
	count int
	// codes is the one copy of the indexed vectors, row-major: packed at
	// Build, aliased in place by Load. The verification kernels scan it
	// and Vector hands out views of its rows.
	codes *verify.Codes
	parts *partition.Partitioning
	proj  *bitvec.Projector // binds a query to every partition at once
	inv   []*invindex.Frozen
	opts  Options
	stats BuildStats

	// scratch pools per-query working memory (seen bitmap, key
	// buffer, candidate and CN-table slices) so steady-state searches
	// allocate almost nothing; see search.go.
	scratch sync.Pool

	// The index's plan prices (allocate.go), grown under pricesMu.
	prices   atomic.Pointer[planPrices]
	pricesMu sync.Mutex

	// Content validation of a loaded index: Load runs only structural
	// checks and sets deepPending; the arena-reading content checks run
	// when the opener calls Validate (which clears deepPending, before
	// the index is shared) or else on the first query, via
	// ensureValidated. deepDone's release-store publishes deepErr to the
	// acquire-load on the query path; deepMu serializes the single
	// validation run. See validate.go.
	deepPending bool
	deepDone    atomic.Bool
	deepMu      sync.Mutex
	deepErr     error
}

// BuildStats records where index construction time went; Table IV
// reports partitioning and indexing separately ("5026 + 560").
type BuildStats struct {
	PartitionNanos int64 // initialization + Algorithm 2 refinement
	IndexNanos     int64 // posting-list construction
	// EstimatorNanos always reads 0: CN estimates are read from the
	// frozen indexes, and nothing is built for them. The field stays
	// because benchmark/ reports it as candest.build_s.
	EstimatorNanos int64
}

// Build constructs a GPH index over data (which must be non-empty and
// dimensionally uniform). The vectors are copied into the index's own
// arena; neither the slice nor the vectors are retained.
func Build(data []bitvec.Vector, opts Options) (*Index, error) {
	dims, err := engine.CheckBuild(data)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if dims == 0 {
		return nil, fmt.Errorf("core: zero-dimensional vectors")
	}
	opts = opts.withDefaults(dims)

	// Offline phase 1: dimension partitioning (§V).
	start := time.Now()
	sample := partition.SampleRows(data, opts.SampleSize, opts.Seed)
	var wl partition.Workload
	if opts.Workload != nil {
		wl = *opts.Workload
		if err := wl.Validate(); err != nil {
			return nil, fmt.Errorf("core: invalid workload: %w", err)
		}
	} else {
		wl = partition.SurrogateWorkload(data, opts.WorkloadSize, defaultTauRange(opts.MaxTau), opts.Seed)
	}
	parts, err := buildPartitioning(sample, dims, len(data), opts, wl)
	if err != nil {
		return nil, err
	}
	partitionNanos := time.Since(start).Nanoseconds()

	ix, err := freeze(verify.Pack(data), parts, opts)
	if err != nil {
		return nil, err
	}
	ix.stats.PartitionNanos = partitionNanos
	return ix, nil
}

// freeze is offline phase 2: the index over codes, which it keeps, under
// the partitioning parts — per-partition inverted indexes. Partitions are
// independent, so construction fans out over a bounded worker pool; each
// partition is built whole by one worker, which keeps the result identical
// to a serial build. A worker projects every vector into one array of
// words and freezes it straight into the compact arena layout queries
// probe, with no build-time map. Build ends here, and so do the "mih"
// engine's Build and Load.
func freeze(codes *verify.Codes, parts *partition.Partitioning, opts Options) (*Index, error) {
	ix := &Index{dims: codes.Dims(), count: codes.Len(), codes: codes, opts: opts,
		parts: parts, proj: bitvec.NewProjector(codes.Dims(), parts.Parts)}
	start := time.Now()
	ix.inv = make([]*invindex.Frozen, parts.NumParts())
	err := ForEach(opts.BuildParallelism, parts.NumParts(), func(i int) error {
		dimsI := parts.Parts[i]
		ix.inv[i] = invindex.FreezeRows(ix.count, 1, len(dimsI), invindex.ProjectRows(codes, dimsI))
		return nil
	})
	if err != nil {
		return nil, err
	}
	ix.stats.IndexNanos = time.Since(start).Nanoseconds()
	return ix, nil
}

// ForEach runs fn(0..n-1) on up to parallelism workers (≤ 0 selects
// GOMAXPROCS) and returns the lowest-numbered error. A failure stops
// workers from starting items numbered above it, never one below: every
// item before the first failing one runs, so which error comes back does
// not depend on how the workers were scheduled. Every started fn call
// completes before ForEach returns, so callers may read the filled
// slices without synchronization. It is the build-side worker pool
// shared by the per-partition phase here and the per-shard builds in
// internal/shard.
func ForEach(parallelism, n int, fn func(i int) error) error {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var firstFailed atomic.Int64 // the lowest item that failed so far, n for none
	firstFailed.Store(int64(n))
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i >= int64(n) || i > firstFailed.Load() {
					return
				}
				if errs[i] = fn(int(i)); errs[i] == nil {
					continue
				}
				for f := firstFailed.Load(); i < f; f = firstFailed.Load() {
					if firstFailed.CompareAndSwap(f, i) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func defaultTauRange(maxTau int) []int {
	var taus []int
	for t := 4; t <= maxTau; t *= 2 {
		taus = append(taus, t)
	}
	if len(taus) == 0 {
		taus = []int{maxTau}
	}
	return taus
}

func buildPartitioning(sample []bitvec.Vector, dims, totalRows int, opts Options, wl partition.Workload) (*partition.Partitioning, error) {
	m := opts.NumPartitions
	var p *partition.Partitioning
	switch opts.Init {
	case InitGreedy:
		p = partition.GreedyInit(sample, dims, m)
	case InitOriginal:
		p = partition.OriginalInit(dims, m)
	case InitRandom:
		p = partition.RandomInit(dims, m, opts.Seed)
	case InitOS:
		p = partition.OS(sample, dims, m)
	case InitDD:
		p = partition.DD(sample, dims, m)
	default:
		return nil, fmt.Errorf("core: unknown init kind %v", opts.Init)
	}
	if !opts.NoRefine {
		cfg := partition.RefineConfig{EnumBudget: opts.EnumBudget, TotalRows: totalRows, Seed: opts.Seed}
		p, _ = partition.Refine(p, sample, wl, cfg)
	}
	// Each key is the same set of bits in any order, so the order is
	// free: ascending, a partition's bits in one vector word are one
	// PEXT's (bitvec.Projector).
	for _, part := range p.Parts {
		slices.Sort(part)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: partitioning invalid: %w", err)
	}
	return p, nil
}

// Dims returns the dimensionality of indexed vectors.
func (ix *Index) Dims() int { return ix.dims }

// Len returns the number of indexed vectors.
func (ix *Index) Len() int { return ix.count }

// Vector returns the indexed vector with the given id: a view of its
// row, which shares storage with the index and must not be modified.
func (ix *Index) Vector(id int32) bitvec.Vector {
	// A load whose opener left validation to the first query runs it
	// first, as a query would: the rows are read after the pass that
	// checks them. Its error (if any) surfaces on every query path.
	_ = ix.ensureValidated()
	return ix.codes.Row(id)
}

// Partitioning exposes the (refined) partitioning for inspection.
func (ix *Index) Partitioning() *partition.Partitioning { return ix.parts }

// BuildStats returns the construction time decomposition.
func (ix *Index) BuildStats() BuildStats { return ix.stats }

// Options returns the resolved build options.
func (ix *Index) Options() Options { return ix.opts }

// EstimateTable returns the per-partition candidate-number estimates
// for q at thresholds e ∈ [−1, tau], every cell of every row — the
// eager view of what Algorithm 1 consumes. Queries do not call it:
// their allocation (allocate.go) estimates only the cells the DP picks
// and reaches the same result. It exists for the allocation
// experiments (Fig. 3), which compare allocation policies under the
// same cost model, for per-layer timing of the histogram pass
// (benchmark/'s candest.cn_all_us), and as the reference the lazy
// allocation is tested against.
func (ix *Index) EstimateTable(q bitvec.Vector, tau int) alloc.Table {
	// Experiments call this on freshly opened indexes: run any deferred
	// content validation first. A validation error does not stop the
	// estimate (estimates over the corrupt state are deterministic and
	// in bounds); it surfaces properly on the query path.
	_ = ix.ensureValidated()
	table := make(alloc.Table, len(ix.inv))
	var hist []int64
	for i, inv := range ix.inv {
		table[i] = make([]int64, tau+2)
		hist = scanRow(inv, q.Project(ix.parts.Parts[i]).Words(), hist, table[i])
	}
	return table
}

// SizeBytes reports the index's resident size: the frozen posting
// arenas, byte for byte. CN estimation reads those arenas and adds
// nothing to them.
func (ix *Index) SizeBytes() int64 {
	var s int64
	for _, inv := range ix.inv {
		s += inv.SizeBytes()
	}
	return s
}
