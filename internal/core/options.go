// Package core implements GPH — the General Pigeonhole
// principle-based algorithm for Hamming distance search (§VI of the
// paper). An Index couples a cost-aware dimension partitioning
// (offline, §V) with per-partition inverted indexes, which also answer
// the candidate-number estimates; queries run the online threshold
// allocation DP (§IV), enumerate per-partition signature balls, probe
// the inverted indexes, and verify candidates.
package core

import (
	"fmt"

	"gph/internal/partition"
)

// InitKind selects how the dimension partitioning is produced before
// (optional) refinement. The names follow the paper's Fig. 4 legends.
type InitKind int

const (
	// InitGreedy is the paper's entropy-minimizing greedy
	// initialization (GreedyInit): correlated dimensions are packed
	// together so the allocator can exploit them.
	InitGreedy InitKind = iota
	// InitOriginal keeps dimensions in their original order
	// (OriginalInit / the "OR" arrangement).
	InitOriginal
	// InitRandom shuffles dimensions before equi-width splitting
	// (RandomInit / the "RS" arrangement).
	InitRandom
	// InitOS is HmSearch's frequency-dealing rearrangement ("OS").
	InitOS
	// InitDD is data-driven correlation spreading ("DD").
	InitDD
)

// String implements fmt.Stringer with the paper's labels.
func (k InitKind) String() string {
	switch k {
	case InitGreedy:
		return "GR"
	case InitOriginal:
		return "OR"
	case InitRandom:
		return "RS"
	case InitOS:
		return "OS"
	case InitDD:
		return "DD"
	default:
		return fmt.Sprintf("InitKind(%d)", int(k))
	}
}

// AllocatorKind selects the online threshold-allocation policy.
type AllocatorKind int

const (
	// AllocDP is the paper's Algorithm 1 (default).
	AllocDP AllocatorKind = iota
	// AllocRR is the round-robin baseline of §VII-C: near-equal
	// thresholds summing to τ−m+1, no cost model — with equi-width
	// partitions, Multi-Index Hashing (the "mih" engine). The vector
	// ignores the CN estimates; the scan guard reads them to price it, as
	// it prices the DP's.
	AllocRR
)

// String implements fmt.Stringer with the paper's labels.
func (k AllocatorKind) String() string {
	switch k {
	case AllocDP:
		return "DP"
	case AllocRR:
		return "RR"
	default:
		return fmt.Sprintf("AllocatorKind(%d)", int(k))
	}
}

// Options configures Build. The zero value selects the paper's
// defaults: greedy entropy initialization with refinement, m ≈ n/24
// partitions, and a sampled surrogate workload. There is one CN
// estimator and no option for it: CN(qᵢ, e) is read exactly from the
// partition's frozen keys and posting counts (allocate.go).
type Options struct {
	// NumPartitions is m; 0 selects max(2, n/24), the paper's §VII-D
	// recommendation.
	NumPartitions int
	// Init selects the initial arrangement (default InitGreedy).
	Init InitKind
	// NoRefine disables Algorithm 2 hill climbing (the rearrangement
	// baselines OR/OS/DD/RS are complete methods without it).
	NoRefine bool
	// Allocator selects the threshold-allocation policy (default
	// AllocDP, the paper's Algorithm 1).
	Allocator AllocatorKind
	// MaxTau is the largest query threshold the index is optimized
	// for; it sizes the surrogate workload (default 64). Queries beyond
	// MaxTau still answer correctly.
	MaxTau int
	// Workload drives the offline partitioning; nil samples a
	// surrogate from the data (§V-B).
	Workload *partition.Workload
	// WorkloadSize sizes the surrogate workload (default 40).
	WorkloadSize int
	// SampleSize bounds the data sample used for partitioning and
	// entropy computation (default 800).
	SampleSize int
	// EnumBudget caps per-partition signature enumeration
	// (default 1<<18 signatures).
	EnumBudget int64
	// Seed makes every randomized choice reproducible.
	Seed int64
	// BuildParallelism bounds the worker pool that builds the
	// per-partition inverted indexes (offline phase 2); ≤ 0 selects
	// GOMAXPROCS. The built index is identical for every setting —
	// partitions are independent, so only wall-clock time changes.
	BuildParallelism int
	// WALPath names the write-ahead log file for durable sharded
	// indexes: gph.OpenSharded replays and attaches it so every
	// acknowledged Insert/Delete survives a crash. Empty disables
	// durability. Runtime-only — a single immutable Index ignores it,
	// and it is not persisted in saved containers.
	WALPath string
	// AutoCompactDelta is the sharded layer's auto-compaction
	// threshold: when a shard's pending updates (delta inserts plus
	// tombstones) reach this count, a background compaction starts
	// folding them into the built indexes. 0 disables the policy
	// (compaction is explicit). Runtime-only — ignored by a single
	// immutable Index and not persisted in saved containers.
	AutoCompactDelta int
}

func (o Options) withDefaults(n int) Options {
	if o.NumPartitions == 0 {
		o.NumPartitions = n / 24
	}
	if o.NumPartitions < 2 {
		o.NumPartitions = 2
	}
	if o.NumPartitions > n {
		o.NumPartitions = n
	}
	if o.MaxTau <= 0 {
		o.MaxTau = 64
	}
	if o.WorkloadSize <= 0 {
		o.WorkloadSize = 40
	}
	if o.SampleSize <= 0 {
		o.SampleSize = 800
	}
	if o.EnumBudget == 0 {
		o.EnumBudget = 1 << 18
	}
	return o
}
