// Package gph is a library for exact similarity search in Hamming
// space, implementing GPH (Qin et al., "GPH: Similarity Search in
// Hamming Space", ICDE 2018): a filter-and-refine index built on a
// tight, general form of the pigeonhole principle with cost-aware
// dimension partitioning (offline) and per-query threshold allocation
// (online).
//
// # Quickstart
//
//	data := []gph.Vector{ /* n-dimensional binary vectors */ }
//	index, err := gph.Build(data, gph.Options{})
//	if err != nil { ... }
//	ids, err := index.Search(query, 8) // all vectors within distance 8
//
// Build cost is dominated by the offline partitioning optimization;
// queries then allocate per-partition thresholds with a dynamic
// program, enumerate signature balls, probe inverted indexes, and
// verify candidates. Results are exact: every vector within the
// threshold is returned, nothing else.
//
// # Engines
//
// GPH and the paper's baselines — MIH (a GPH build with round-robin
// thresholds), HmSearch, PartAlloc, linear scan, MinHash LSH — all serve
// one search contract, Engine, through a registry keyed by name and by
// persistence magic bytes:
//
//	e, err := gph.BuildEngine("mih", data, gph.EngineOptions{})
//	ids, err := e.Search(query, 8)
//	nns, err := e.SearchKNN(query, 10)
//	e.Save(f)                       // restore with gph.LoadAny(f)
//
// Engines are interchangeable behind ShardedIndex, gph-server and
// gph-search; see DESIGN.md §8, and REPRODUCTION.md (written by
// cmd/gph-bench) for how they compare on the paper's claims.
package gph

import (
	"io"
	"iter"
	"os"

	"gph/internal/bitvec"
	"gph/internal/core"
	"gph/internal/engine"
	"gph/internal/plan"
	"gph/internal/shard"

	// The engines register themselves with the engine registry at
	// init (core registers both "gph" and "mih"); importing them here
	// makes every registered engine available to BuildEngine, LoadAny
	// and the CLIs.
	_ "gph/internal/hmsearch"
	_ "gph/internal/linscan"
	_ "gph/internal/lsh"
	_ "gph/internal/partalloc"
)

// Vector is an n-dimensional binary vector packed into 64-bit words.
type Vector = bitvec.Vector

// NewVector returns an all-zero vector with n dimensions.
func NewVector(n int) Vector { return bitvec.New(n) }

// VectorFromBits builds a vector from a byte-per-dimension slice;
// bits[i] != 0 sets dimension i.
func VectorFromBits(bits []byte) Vector { return bitvec.FromBits(bits) }

// VectorFromString parses a vector from a '0'/'1' string, dimension 0
// first.
func VectorFromString(s string) (Vector, error) { return bitvec.FromString(s) }

// MustVectorFromString is VectorFromString that panics on malformed
// input; it is intended for tests, examples and literals.
func MustVectorFromString(s string) Vector { return bitvec.MustFromString(s) }

// VectorFromWords builds an n-dimensional vector adopting the given
// packed words (bit i of word i/64 is dimension i).
func VectorFromWords(n int, words []uint64) Vector { return bitvec.FromWords(n, words) }

// Hamming returns the Hamming distance between two equal-dimension
// vectors.
func Hamming(a, b Vector) int { return a.Hamming(b) }

// Index is an immutable GPH index; safe for concurrent searches after
// Build.
type Index = core.Index

// Options configures Build; the zero value selects the paper's
// defaults (greedy entropy partitioning with refinement, m ≈ n/24).
// Candidate numbers are read exactly from the index; there is no
// estimator to choose.
type Options = core.Options

// Neighbor is one k-nearest-neighbours result: a vector id and its
// Hamming distance from the query.
type Neighbor = core.Neighbor

// Stats decomposes a query's work; see SearchStats.
type Stats = core.Stats

// BuildStats decomposes index construction time.
type BuildStats = core.BuildStats

// InitKind selects the initial dimension arrangement.
type InitKind = core.InitKind

// Initial arrangement strategies (Fig. 4 of the paper).
const (
	InitGreedy   = core.InitGreedy   // entropy-minimizing greedy (default)
	InitOriginal = core.InitOriginal // original dimension order
	InitRandom   = core.InitRandom   // random shuffle
	InitOS       = core.InitOS       // HmSearch frequency dealing
	InitDD       = core.InitDD       // data-driven correlation spreading
)

// ErrInvalidQuery marks search errors caused by the caller's query
// input (wrong dimensionality, negative threshold) rather than an
// internal failure; match with errors.Is.
var ErrInvalidQuery = core.ErrInvalidQuery

// Build constructs a GPH index over a packed copy of data.
func Build(data []Vector, opts Options) (*Index, error) { return core.Build(data, opts) }

// Load reads an index previously written with Index.Save, validated in
// full before it returns.
func Load(r io.Reader) (*Index, error) { return core.Load(r) }

// TanimotoSearch returns the ids of indexed vectors whose Tanimoto
// similarity to q is at least t ∈ (0, 1], using the Hamming-search
// conversion from cheminformatics (exact results; see
// Index.SearchTanimoto).
func TanimotoSearch(index *Index, q Vector, t float64) ([]int32, error) {
	return index.SearchTanimoto(q, t)
}

// ShardedIndex hash-partitions a collection across independently
// built GPH shards and fans every query out across them over a
// bounded worker pool, merging per-shard results deterministically.
// Unlike Index it is updatable: Insert and Delete take effect
// immediately through small per-shard delta buffers, and compaction
// (explicit Compact/CompactAsync, or automatic once a shard's buffer
// crosses Options.AutoCompactDelta) folds the buffers into the built
// shards. Search results are exact and identical to a single Index
// over the same live vectors.
//
// All methods are safe for concurrent use, and searches never block
// on writers or compaction: each shard publishes an immutable
// snapshot through an atomic pointer, queries read the snapshots
// lock-free, and compaction rebuilds off-lock before a brief swap.
// With a write-ahead log attached (OpenSharded with Options.WALPath,
// or OpenWAL), every acknowledged update is durable: a kill -9
// between an Insert and the next SaveFile loses nothing — reopening
// replays the log. Close the index when done to release the fan-out
// workers and the WAL.
type ShardedIndex = shard.Index

// CompactionStatus reports a ShardedIndex's compaction subsystem for
// operator polling after CompactAsync: whether a run is in flight,
// how many completed, and how the last one went.
type CompactionStatus = shard.CompactionStatus

// ShardStats describes one shard of a ShardedIndex: indexed vector
// count, pending delta-buffer and tombstone depth, and resident size.
type ShardStats = shard.Stats

// ErrNotFound reports a ShardedIndex.Delete of an id that is not
// live; match with errors.Is.
var ErrNotFound = shard.ErrNotFound

// BuildSharded constructs a ShardedIndex over data with numShards
// hash-partitioned shards, assigning global ids 0..len(data)-1. The
// per-shard builds run on a worker pool bounded by
// opts.BuildParallelism. Every shard keeps a packed copy of its rows.
func BuildSharded(data []Vector, numShards int, opts Options) (*ShardedIndex, error) {
	return shard.Build(data, numShards, opts)
}

// NewSharded returns an empty ShardedIndex that adopts its
// dimensionality from the first Insert; use it for pure-streaming
// collections.
func NewSharded(numShards int, opts Options) (*ShardedIndex, error) {
	return shard.New(numShards, opts)
}

// LoadSharded reads a sharded index previously written with
// ShardedIndex.Save.
func LoadSharded(r io.Reader) (*ShardedIndex, error) { return shard.Load(r) }

// OpenSharded opens a durable sharded GPH index: the snapshot at
// path is loaded if it exists (numShards and the engine then come
// from the container), otherwise an empty index with numShards
// shards is created. If opts.WALPath is non-empty the write-ahead
// log there is replayed on top of the snapshot — recovering every
// update acknowledged before a crash, tolerating a torn final record
// — and attached, so every subsequent acknowledged Insert and Delete
// is durable. Checkpoint with ShardedIndex.SaveFile(path), which
// atomically replaces the snapshot and truncates the log; Close the
// index when done.
func OpenSharded(path string, numShards int, opts Options) (*ShardedIndex, error) {
	return OpenShardedEngine("gph", path, numShards, opts)
}

// OpenShardedEngine is OpenSharded with an explicit registered engine
// name for the empty-index case (an existing snapshot's engine always
// wins — the container records it).
func OpenShardedEngine(name, path string, numShards int, opts Options) (*ShardedIndex, error) {
	var s *ShardedIndex
	f, err := os.Open(path)
	switch {
	case err == nil:
		s, err = shard.Load(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		// Lifecycle policy is runtime configuration, not persisted
		// state: the caller's threshold applies to the loaded index.
		s.SetAutoCompact(opts.AutoCompactDelta)
	case os.IsNotExist(err):
		s, err = shard.NewEngine(name, numShards, opts)
		if err != nil {
			return nil, err
		}
	default:
		return nil, err
	}
	if opts.WALPath != "" {
		if _, err := s.OpenWAL(opts.WALPath); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// Engine is the uniform search contract every index in this module
// serves — GPH and the paper's baselines alike: range search with
// per-query stats, kNN, batched queries, persistence, and metadata
// (Name, Exact, MaxTau). Exact engines return exactly the vectors
// within the threshold; approximate engines (LSH) may miss results
// but never return false positives.
type Engine = engine.Engine

// EngineOptions is the engine-independent build configuration
// BuildEngine accepts; each engine consumes the fields that apply to
// it. The zero value selects sensible defaults everywhere.
type EngineOptions = engine.BuildOptions

// EngineInfo describes one registered engine: its name and whether it
// is exact.
type EngineInfo = engine.Info

// ErrDimMismatch, ErrNegativeTau and ErrTauExceedsBuild are the
// specific query-validation sentinels shared by every engine; each
// wraps ErrInvalidQuery, so errors.Is against either level works.
var (
	ErrDimMismatch     = engine.ErrDimMismatch
	ErrNegativeTau     = engine.ErrNegativeTau
	ErrTauExceedsBuild = engine.ErrTauExceedsBuild
)

// Engines lists every registered engine, sorted by name.
func Engines() []EngineInfo { return engine.Infos() }

// BuildEngine constructs the named engine ("gph", "mih", "hmsearch",
// "partalloc", "linscan", "lsh") over a packed copy of data.
func BuildEngine(name string, data []Vector, opts EngineOptions) (Engine, error) {
	return engine.Build(name, data, opts)
}

// LoadAny restores any engine previously written with Engine.Save
// (including Index.Save), dispatching on the stream's leading magic
// bytes.
func LoadAny(r io.Reader) (Engine, error) { return engine.LoadAny(r) }

// OpenMode selects how OpenEngine and OpenShardedFile bring an index
// file into memory: OpenHeap reads it into one owned buffer and
// validates it in full before returning, OpenMMap maps it read-only so
// open time is O(1) in arena bytes and the kernel pages data in on
// demand — see DESIGN.md §14. Both decode the bytes in place.
type OpenMode = engine.OpenMode

// Open modes.
const (
	OpenHeap = engine.OpenHeap
	OpenMMap = engine.OpenMMap
)

// OpenedEngine is an Engine opened from a file by OpenEngine, carrying
// the backing storage's lifetime: Close releases the file mapping (if
// any) once in-flight searches drain, and searches after Close fail
// with ErrIndexClosed.
type OpenedEngine = engine.OpenedEngine

// ErrIndexClosed reports an operation against a mapped index whose
// Close already ran; match with errors.Is.
var ErrIndexClosed = engine.ErrIndexClosed

// OpenEngine opens the engine index file at path in the given mode,
// dispatching on the file's magic like LoadAny. In OpenMMap mode the
// index's bulk arenas are served directly from the page cache instead
// of being copied onto the heap: opening a multi-gigabyte index takes
// milliseconds, resident memory stays proportional to the pages
// queries actually touch, and N processes opening the same file share
// one physical copy. Query results are identical in both modes. A
// truncated or structurally corrupt file fails OpenEngine in both;
// corruption only a pass over every arena byte can find fails a heap
// open, and a mapped open's first search (every search after it too) —
// never a fault. DESIGN.md §6 has the table.
func OpenEngine(path string, mode OpenMode) (OpenedEngine, error) {
	return engine.Open(path, mode)
}

// OpenShardedFile opens an index file as a ShardedIndex in the given
// mode: a sharded container (ShardedIndex.Save/SaveFile output), or
// any engine's own Save output, which is adopted as a one-shard index
// with global id == engine id — S = 1 with empty update buffers is
// just the degenerate sharded index. In OpenMMap mode every shard's
// built engine serves from the shared file mapping; updates,
// compaction and checkpointing all work (compacted shards move to the
// heap, and the mapping is released by Close, after which searches
// fail with ErrIndexClosed). What each mode has validated when it
// returns is OpenEngine's: a corrupt snapshot fails a heap open, and a
// mapped open's first search. Attach a WAL afterwards with OpenWAL if
// durability is needed.
func OpenShardedFile(path string, mode OpenMode) (*ShardedIndex, error) {
	return shard.OpenFile(path, mode)
}

// Streamer is optionally implemented by engines whose search yields
// results incrementally as verification blocks complete (Index,
// linscan, MIH, HmSearch natively; ShardedIndex streams through its
// own SearchIter). See SearchStream.
type Streamer = engine.Streamer

// SearchStream returns a streaming view of e's range search: results
// arrive as (Neighbor, error) pairs in ascending id order, each with
// its exact Hamming distance, and draining the stream yields exactly
// the ids e.Search returns. Engines implementing Streamer stream
// natively — the first result arrives after candidate generation plus
// one verification block, independent of result-set size; other
// engines fall back to an eager Search replay. On failure the
// sequence yields a single (Neighbor{}, err) and stops. The sequence
// is single-use.
//
//	for nb, err := range gph.SearchStream(e, q, 8) {
//		if err != nil { ... }
//		fmt.Println(nb.ID, nb.Distance)
//	}
func SearchStream(e Engine, q Vector, tau int) iter.Seq2[Neighbor, error] {
	return engine.Stream(e, q, tau)
}

// BuildShardedEngine is BuildSharded with an explicit engine name:
// every shard is built as that engine, and Compact rebuilds shards
// the same way. For engines other than "gph" the applicable subset of
// opts (NumPartitions, MaxTau, EnumBudget, Seed) configures the
// builds.
func BuildShardedEngine(name string, data []Vector, numShards int, opts Options) (*ShardedIndex, error) {
	return shard.BuildEngine(name, data, numShards, opts)
}

// NewShardedEngine is NewSharded with an explicit engine name.
func NewShardedEngine(name string, numShards int, opts Options) (*ShardedIndex, error) {
	return shard.NewEngine(name, numShards, opts)
}

// PlanStats reports the result cache's counters; the struct lives in
// internal/plan. Obtain one from ShardedIndex.PlanStats.
type PlanStats = plan.Stats

// CacheStats is the result cache's counter snapshot (hits, misses,
// evictions, entries, bytes).
type CacheStats = plan.CacheStats
