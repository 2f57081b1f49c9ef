// Package engine defines the single search contract every Hamming
// index in this repository serves — GPH itself and the paper's
// baselines alike — together with the registry that maps engine names
// and persistence magic bytes to constructors. Layers above (the
// public gph API, the shard layer, gph-server, gph-search and the
// bench harness) program against Engine and the registry instead of
// the concrete index types, so adding a backend is one package with an
// init-time Register call.
//
// The package sits below every implementation: it may import only the
// substrate packages (bitvec, binio, partition, verify), never an
// engine implementation. Implementations import it for the contract, the
// shared error sentinels, and the kNN/batch/persistence helpers that
// keep the five index types from carrying five copies of the same
// glue.
package engine

import (
	"io"

	"gph/internal/bitvec"
	"gph/internal/partition"
)

// Stats decomposes one query's work. It is the single stats type every
// engine reports: GPH fills every field (including the per-phase
// timings and the allocated threshold vector); the baseline engines
// fill only the candidate-accounting subset (Signatures, SumPostings,
// Candidates, Results), leaving the rest zero.
type Stats struct {
	// AllocNanos is threshold allocation, CN estimation included;
	// ProbeNanos is the fused signature enumeration + posting probe
	// loop; VerifyNanos is candidate verification.
	AllocNanos  int64
	ProbeNanos  int64
	VerifyNanos int64

	// Thresholds is the allocated threshold vector T the query ran (GPH
	// and PartAlloc); empty when it was answered by scan.
	Thresholds  []int
	EstimatedCN int64 // allocation objective term Σ CN(qᵢ, T[i])
	// AllocRounds, CNScans, CNProbes and CNKeys say what the allocation
	// took (GPH only): how often the DP ran before its answer sat
	// entirely on exact CN cells or the scan guard stopped it, how many
	// partitions had their CN row estimated in full (a scan of the
	// partition's distinct projections, or a whole-row estimator) rather
	// than by posting-length probes, how many such probes there were, and
	// how many keys those scans passed over. One round, one probe a
	// partition and no scans is the cheap case; all four zero with Scanned
	// is the free verdict: the index's shape and τ alone said "scan".
	AllocRounds int
	CNScans     int
	CNProbes    int
	CNKeys      int
	// PlanCost and ScanCost are the two prices GPH's scan guard compared,
	// in key-scan steps: the index plan's (when Scanned, what the guard
	// saw as it tripped, allocation's own work so far included) and a
	// verified scan's of the whole collection at the query's τ. Scanned
	// says the latter was lower and the query was answered that way.
	PlanCost int64
	ScanCost int64
	Scanned  bool
	// Candidate generation is three counts with three unit costs.
	// Signatures are the signatures enumerated and probed; GPH answers a
	// partition whose ball outgrows its keys by one pass over the
	// partition's key arena instead — KeyScans such partitions,
	// KeysScanned keys compared in them — and those balls are not
	// enumerated, so they are not in Signatures. SumPostings is
	// Σ |I_s| over the signatures and matching keys (Fig. 2(b) "sum").
	Signatures  int
	KeyScans    int
	KeysScanned int
	SumPostings int64
	Candidates  int // |S_cand| distinct candidates (Fig. 2(b) "cand")
	Results     int
	CacheHit    bool // query answered from the planner's result cache
}

// TotalNanos returns the summed phase times.
func (s *Stats) TotalNanos() int64 {
	return s.AllocNanos + s.ProbeNanos + s.VerifyNanos
}

// Neighbor is one k-nearest-neighbours result: a vector id and its
// Hamming distance from the query.
type Neighbor struct {
	ID       int32
	Distance int
}

// Engine is the uniform search contract. An Engine is an immutable
// index over a fixed vector collection with dense ids 0..Len()-1; all
// methods are safe for concurrent use after construction.
//
// Range searches return ascending ids. Exact engines return exactly
// the vectors within the threshold; approximate engines (Exact() ==
// false) may miss results but never return false positives. kNN
// results order by (distance, id); engines with a bounded MaxTau
// answer kNN best-effort within that bound and may return fewer than
// k neighbours. SearchBatch aligns results with queries by position,
// nils only the slots of failing queries, and joins their errors.
type Engine interface {
	// Name returns the registry name of the engine ("gph", "mih", …).
	Name() string
	// Exact reports whether every true result is guaranteed returned.
	Exact() bool
	// MaxTau returns the largest query threshold the engine accepts.
	// Engines without a build-time bound return Dims().
	MaxTau() int
	// Dims returns the dimensionality of indexed vectors.
	Dims() int
	// Len returns the number of indexed vectors.
	Len() int
	// SizeBytes reports resident index size under the repository's
	// shared accounting.
	SizeBytes() int64
	// Vector returns the indexed vector with id ∈ [0, Len()). The
	// returned vector shares storage with the engine and must not be
	// modified.
	Vector(id int32) bitvec.Vector

	// Search returns the ids of indexed vectors within Hamming
	// distance tau of q, in ascending order.
	Search(q bitvec.Vector, tau int) ([]int32, error)
	// SearchStats is Search with per-query accounting.
	SearchStats(q bitvec.Vector, tau int) ([]int32, *Stats, error)
	// SearchKNN returns the k nearest neighbours of q, ties broken by
	// ascending id.
	SearchKNN(q bitvec.Vector, k int) ([]Neighbor, error)
	// SearchBatch answers many queries concurrently on up to
	// parallelism workers (≤ 0 selects GOMAXPROCS).
	SearchBatch(queries []bitvec.Vector, tau int, parallelism int) ([][]int32, error)

	// Save serializes the engine; the registry's LoadAny restores it,
	// dispatching on the leading magic bytes.
	Save(w io.Writer) error
}

// BuildOptions is the engine-independent build configuration the
// registry constructors accept. Each engine consumes the fields that
// apply to it and ignores the rest; the zero value selects sensible
// defaults everywhere.
type BuildOptions struct {
	// NumPartitions is the partition count m for the partition-based
	// builds of core (gph, and mih where no Arrangement is given); 0
	// selects each engine's own rule of thumb.
	NumPartitions int
	// MaxTau is the largest query threshold the engine must support
	// (default 64). Engines whose structure depends on τ (hmsearch,
	// lsh, partalloc) build for exactly this threshold; gph uses it to
	// size its surrogate workload; mih and linscan ignore it.
	MaxTau int
	// EnumBudget caps per-partition signature enumeration for engines
	// that enumerate (0 selects each engine's default: 1<<18 for gph,
	// 1<<20 for mih).
	EnumBudget int64
	// Seed drives every randomized choice, making builds reproducible.
	Seed int64
	// BuildParallelism bounds build-time worker pools for engines that
	// parallelize construction (≤ 0 selects GOMAXPROCS).
	BuildParallelism int
	// Arrangement optionally replaces an engine's default dimension
	// arrangement (the bench harness equips the baselines with the OS
	// rearrangement this way; mih takes it in place of its equi-width
	// one). gph derives its own cost-aware arrangement and ignores it.
	Arrangement *partition.Partitioning
}

// WithDefaults returns opts with unset fields resolved to the
// contract's documented defaults.
func (o BuildOptions) WithDefaults() BuildOptions {
	if o.MaxTau <= 0 {
		o.MaxTau = 64
	}
	return o
}
