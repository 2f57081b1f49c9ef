// Package shard implements the horizontally sharded, incrementally
// updatable layer over any registered search engine. An Index
// hash-partitions vectors by content across S independently built
// engines (the same decomposition Faiss's IndexShards applies to
// billion-scale collections), fans queries out across shards over a
// bounded worker pool, and merges per-shard results deterministically.
// Updates are absorbed by a small per-shard delta buffer (inserts are
// linearly scanned at query time, deletes are tombstoned) and folded
// into the built indexes by compaction. Each shard is a complete
// index over its slice of the collection, so for exact engines
// sharded answers match a single index over the same live set — and
// S = 1 with empty buffers is that single index: the degenerate case,
// which is how an engine's own file is served (OpenFile adopts it) and
// why nothing above the engines needs a second, unsharded path.
//
// Each shard's state is an immutable snapshot published through an
// atomic pointer: searches load the current epoch and never take a
// lock, writers copy-on-write a successor and swap it in, and Compact
// rebuilds dirty shards entirely off-lock before a brief swap — so
// searches proceed at full speed during a multi-second rebuild.
// Attaching a write-ahead log (OpenWAL) makes acknowledged updates
// durable across crashes. The default engine is GPH, whose paper
// machinery (partitioning, allocation, enumeration — §IV–V) is
// untouched by any of this.
package shard

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gph/internal/bitvec"
	"gph/internal/core"
	"gph/internal/engine"
	"gph/internal/mmapio"
	"gph/internal/plan"
	"gph/internal/wal"
)

// ErrNotFound reports a Delete of an id that is not live (never
// assigned, or already deleted); match with errors.Is.
var ErrNotFound = errors.New("id not found")

// deltaEntry is one unindexed insert: a vector awaiting compaction,
// carrying its already-assigned global id.
type deltaEntry struct {
	id  int32
	vec bitvec.Vector
}

// state is one shard's published snapshot: a built engine over its
// indexed vectors plus the update buffers layered on top. A state is
// immutable once published through the shard's atomic pointer —
// writers never mutate it, they copy-on-write a successor — so a
// search that loaded it reads a consistent shard for the query's
// whole lifetime, concurrently with any writer or compaction.
type state struct {
	built    engine.Engine  // nil when the shard has no indexed vectors
	builtIDs []int32        // local id → global id, strictly ascending (pos searches it)
	dead     map[int32]bool // tombstoned global ids within built
	delta    []deltaEntry   // unindexed inserts, ascending global id

	// epoch counts this shard's snapshot swaps: every successor state
	// carries its predecessor's epoch plus one. Exported per shard in
	// Stats for observability of snapshot churn; the result cache keys
	// on the index-wide epoch counter, which the same swaps bump.
	epoch uint64
}

// pos returns the local id of global id in the built engine — the
// inverse of builtIDs, by binary search: every constructor of a state
// (build, compaction, the loaders) leaves builtIDs strictly ascending.
func (sh *state) pos(id int32) (int32, bool) {
	j, ok := slices.BinarySearch(sh.builtIDs, id)
	return int32(j), ok
}

// live returns the number of vectors the shard answers for.
func (sh *state) live() int {
	return len(sh.builtIDs) - len(sh.dead) + len(sh.delta)
}

// dirty reports whether compaction has anything to fold.
func (sh *state) dirty() bool {
	return len(sh.dead) > 0 || len(sh.delta) > 0
}

// populated reports whether a search needs to visit this shard.
func (sh *state) populated() bool {
	return sh.built != nil || len(sh.delta) > 0
}

// withInsert returns a successor state with one more delta entry.
// The append may share the receiver's backing array: that is safe
// because writers serialize behind the index lock, so successor
// states form a linear chain — each append occupies a fresh index
// past every published state's length, which no reader holding an
// older (shorter) slice can reach, and any state that removes
// entries (withoutDelta, the compaction swap) copies to a fresh
// array, abandoning the old one before the chain could branch.
// Amortized O(1), so an insert burst between compactions costs O(n)
// total rather than the O(n²) a full copy per insert would. An id older
// than the buffer's newest — only a rolled-back delete re-buffers one —
// goes to its place in a fresh array: delta stays ascending, which is
// what keeps compaction's merged builtIDs ascending.
func (sh *state) withInsert(e deltaEntry) *state {
	next := *sh
	next.epoch = sh.epoch + 1
	if n := len(sh.delta); n > 0 && sh.delta[n-1].id > e.id {
		at, _ := slices.BinarySearchFunc(sh.delta, e.id, func(d deltaEntry, id int32) int { return cmp.Compare(d.id, id) })
		next.delta = slices.Insert(slices.Clone(sh.delta), at, e)
		return &next
	}
	next.delta = append(sh.delta, e)
	return &next
}

// withDead returns a successor state with id tombstoned.
func (sh *state) withDead(id int32) *state {
	next := *sh
	next.epoch = sh.epoch + 1
	next.dead = make(map[int32]bool, len(sh.dead)+1)
	for k := range sh.dead {
		next.dead[k] = true
	}
	next.dead[id] = true
	return &next
}

// withoutDelta returns a successor state with the delta entry for id
// removed, plus the removed entry (for WAL-failure rollback).
func (sh *state) withoutDelta(id int32) (*state, deltaEntry) {
	next := *sh
	next.epoch = sh.epoch + 1
	var removed deltaEntry
	next.delta = make([]deltaEntry, 0, len(sh.delta)-1)
	for _, e := range sh.delta {
		if e.id == id {
			removed = e
			continue
		}
		next.delta = append(next.delta, e)
	}
	return &next, removed
}

// withoutDead returns a successor state with id's tombstone removed
// (WAL-failure rollback of a built-vector delete).
func (sh *state) withoutDead(id int32) *state {
	next := *sh
	next.epoch = sh.epoch + 1
	next.dead = make(map[int32]bool, len(sh.dead))
	for k := range sh.dead {
		if k != id {
			next.dead[k] = true
		}
	}
	return &next
}

// CompactionStatus reports the compaction subsystem's state for
// operator polling (the server surfaces it under /stats after an
// async POST /compact).
type CompactionStatus struct {
	// Running is true while a compaction (explicit, async or
	// auto-triggered) is queued or rebuilding.
	Running bool `json:"running"`
	// Runs counts completed compaction runs, failed ones included.
	Runs int64 `json:"runs"`
	// LastMillis is the wall-clock duration of the last completed run.
	LastMillis int64 `json:"last_millis"`
	// LastError is the last completed run's failure, "" on success.
	LastError string `json:"last_error,omitempty"`
}

// Index is a sharded, updatable index over any registered engine
// (GPH by default). Vectors carry stable global ids: Build assigns
// 0..n-1, Insert continues from there, and ids survive compaction.
//
// All methods are safe for concurrent use. Searches never take the
// index lock: they read each shard's published snapshot and proceed
// concurrently with writers and with compaction. Insert, Delete and
// the compaction swap serialize behind a short writer lock; the
// expensive per-shard rebuilds run off-lock. Close releases the
// fan-out workers and the attached WAL; it must not race with other
// operations still in flight.
type Index struct {
	// mu serializes writers (Insert, Delete, the compaction swap,
	// Save) and guards owner and nextID. Searches do not take it.
	// Blocking work — the WAL fsync, mapping read sections — stays
	// outside the critical section; the checkpoint's fsyncs are the
	// deliberate exception (see SaveFile).
	mu        sync.Mutex
	dims      atomic.Int32 // 0 until the first vector arrives
	numShards int
	engine    string       // registry name of the per-shard engine
	maxTau    int          // resolved τ bound for τ-bounded engines; 0 = unbounded
	opts      core.Options // raw (pre-default) build options, reused by compaction
	nextID    int32
	shards    []atomic.Pointer[state]
	owner     map[int32]int32 // global id → shard; exactly the live ids
	live      atomic.Int64    // len(owner), readable without mu

	wal walLog // nil until OpenWAL; guarded by mu

	// epoch counts snapshot swaps index-wide: writers bump it adjacent
	// to every shards[i].Store. The result cache keys on it, so a swap
	// invalidates every cached result with zero coordination — stale
	// entries can never match a post-swap lookup and age out of the
	// LRU. Monotonic, never reset (no ABA).
	epoch atomic.Uint64

	// cache is the bounded LRU over query results, fixed at
	// construction (ConfigurePlan before serving) and read lock-free on
	// the search hot path; nil when disabled.
	cache *plan.Cache
	engID uint8 // plan.EngineID(engine), baked into cache keys

	// Compaction: compactMu serializes rebuild runs; pending
	// deduplicates async/auto triggers; autoCompact is the buffer
	// threshold that arms the automatic trigger; the rest is status.
	compactMu      sync.Mutex
	compactPending atomic.Bool
	autoCompact    atomic.Int32
	statusMu       sync.Mutex
	status         CompactionStatus

	// Query fan-out pool: a fixed set of workers started on the first
	// multi-shard search. Submitting falls back to inline execution
	// when every worker is busy, so queries never block on the pool
	// and goroutine count stays bounded regardless of query rate.
	workerOnce sync.Once
	tasks      chan func()
	closed     chan struct{}
	closeOnce  sync.Once
	bg         sync.WaitGroup // background auto/async compactions

	// mapping backs a container opened with OpenFile in mmap mode: the
	// nested shard engines' arenas are borrowed slices over it. A
	// compacted shard's engine keeps its own copy of its rows, but the
	// shards not yet compacted still read the mapping, so it lives until
	// Close, not until the first compaction.
	// Operations that read index storage bracket themselves with
	// acquireMapping/releaseMapping; Close fails new operations cleanly
	// and unmaps once in-flight ones drain. nil for built or
	// heap-loaded indexes, where every bracket is a no-op.
	mapping *mmapio.Mapping
}

// walLog is what the index asks of its write-ahead log: a *wal.Log,
// or a test's wrapper around one.
type walLog interface {
	Write(rec wal.Record) (int64, error)
	Sync(target int64) error
	Reset() error
	Size() int64
	Close() error
}

// acquireMapping registers an in-flight reader of mapped storage;
// engine.ErrIndexClosed (via errors.Is) means Close already ran. Every
// nil error must be paired with releaseMapping.
//
//gph:hotpath
func (s *Index) acquireMapping() error {
	if s.mapping != nil && !s.mapping.Acquire() {
		return fmt.Errorf("shard: %w", engine.ErrIndexClosed)
	}
	return nil
}

// releaseMapping exits the read section acquireMapping opened.
//
//gph:hotpath
func (s *Index) releaseMapping() {
	if s.mapping != nil {
		s.mapping.Release()
	}
}

// Mapped reports whether the index serves from a live file mapping.
func (s *Index) Mapped() bool { return s.mapping != nil && s.mapping.Mapped() }

// MappedBytes returns the size of the backing file mapping in bytes
// (0 when none).
func (s *Index) MappedBytes() int64 {
	if s.mapping == nil {
		return 0
	}
	return int64(s.mapping.Len())
}

// New returns an empty sharded GPH index with numShards shards; the
// dimensionality is adopted from the first inserted vector. opts
// configures every per-shard build (compaction applies it as Build
// would) and the auto-compaction policy (Options.AutoCompactDelta).
func New(numShards int, opts core.Options) (*Index, error) {
	return NewEngine(core.EngineName, numShards, opts)
}

// NewEngine is New with an explicit registered engine name; every
// shard is built (by compaction) as that engine. For engines other
// than GPH, the applicable subset of opts (NumPartitions, MaxTau,
// EnumBudget, Seed) configures the builds.
func NewEngine(engineName string, numShards int, opts core.Options) (*Index, error) {
	if numShards < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", numShards)
	}
	reg, ok := engine.Lookup(engineName)
	if !ok || reg.Build == nil {
		return nil, fmt.Errorf("shard: unknown engine %q (registered: %v)", engineName, engine.Names())
	}
	s := &Index{
		numShards: numShards,
		engine:    engineName,
		opts:      opts,
		shards:    make([]atomic.Pointer[state], numShards),
		owner:     make(map[int32]int32),
		tasks:     make(chan func()),
		closed:    make(chan struct{}),
	}
	if reg.TauBounded {
		// Resolve the bound the built shards will carry, so queries are
		// validated identically whether they hit built indexes or delta
		// buffers (a single index over the same live set would reject
		// over-threshold queries regardless of compaction state).
		s.maxTau = engine.BuildOptions{MaxTau: opts.MaxTau}.WithDefaults().MaxTau
	}
	s.autoCompact.Store(int32(opts.AutoCompactDelta))
	_ = s.ConfigurePlan("", opts.CacheBytes) // the empty mode is never refused
	empty := &state{dead: map[int32]bool{}}
	for i := range s.shards {
		s.shards[i].Store(empty)
	}
	return s, nil
}

// SetAutoCompact reconfigures the auto-compaction policy at runtime:
// a background compaction starts once a shard's pending updates
// (delta inserts plus tombstones) reach threshold. 0 disables the
// policy. Safe to call concurrently with any operation.
func (s *Index) SetAutoCompact(threshold int) {
	s.autoCompact.Store(int32(threshold))
}

// Build constructs a sharded GPH index over data, assigning global
// ids 0..len(data)-1. Vectors are routed to shards by a content hash,
// and the per-shard builds fan out over a worker pool bounded by
// opts.BuildParallelism, which the concurrent builds divide among
// themselves (see innerOpts); the result is identical at every
// parallelism setting.
func Build(data []bitvec.Vector, numShards int, opts core.Options) (*Index, error) {
	return BuildEngine(core.EngineName, data, numShards, opts)
}

// BuildEngine is Build with an explicit registered engine name. It
// assembles each shard's initial state before anything is published,
// which is why it is a designated snapshot writer.
func BuildEngine(engineName string, data []bitvec.Vector, numShards int, opts core.Options) (*Index, error) {
	s, err := NewEngine(engineName, numShards, opts)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return s, nil
	}
	dims := data[0].Dims()
	if dims == 0 {
		return nil, fmt.Errorf("shard: zero-dimensional vectors")
	}
	for i, v := range data {
		if v.Dims() != dims {
			return nil, fmt.Errorf("shard: vector %d has %d dims, want %d", i, v.Dims(), dims)
		}
	}
	s.dims.Store(int32(dims))
	states := make([]*state, numShards)
	for i := range states {
		states[i] = &state{dead: map[int32]bool{}}
	}
	for id, v := range data {
		si := s.route(v)
		states[si].builtIDs = append(states[si].builtIDs, int32(id))
		s.owner[int32(id)] = si
	}
	s.nextID = int32(len(data))
	s.live.Store(int64(len(data)))
	err = core.ForEach(opts.BuildParallelism, numShards, func(i int) error {
		sh := states[i]
		if len(sh.builtIDs) == 0 {
			return nil
		}
		local := make([]bitvec.Vector, len(sh.builtIDs))
		for j, gid := range sh.builtIDs {
			local[j] = data[gid]
		}
		built, err := s.buildInner(local, numShards)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		sh.built = built
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range states {
		s.shards[i].Store(states[i])
	}
	return s, nil
}

// innerOpts is the build configuration of one shard in a round of
// builds ≥ 1 shard builds: core.ForEach runs min(P, builds) of them at
// once, and they divide the BuildParallelism pool P between them, so
// a single build (S = 1, or a compaction with one dirty shard) keeps
// the whole pool instead of running serially. core.Build is
// byte-identical at every parallelism, so the split changes
// wall-clock time only.
func (s *Index) innerOpts(builds int) core.Options {
	o := s.opts
	p := o.BuildParallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	o.BuildParallelism = p / min(p, builds)
	return o
}

// buildInner constructs one shard's engine over its local vectors, as
// one of builds concurrent shard builds. GPH shards use the full
// core.Options (Refine, Learned, Workload…); other engines receive
// the engine-independent subset through the registry.
func (s *Index) buildInner(local []bitvec.Vector, builds int) (engine.Engine, error) {
	o := s.innerOpts(builds)
	if s.engine == core.EngineName {
		return core.Build(local, o)
	}
	return engine.Build(s.engine, local, engine.BuildOptions{
		NumPartitions:    o.NumPartitions,
		MaxTau:           o.MaxTau,
		EnumBudget:       o.EnumBudget,
		Seed:             o.Seed,
		BuildParallelism: o.BuildParallelism,
	})
}

// route hash-partitions a vector by content (FNV-1a over the packed
// words), so placement is deterministic and independent of insertion
// order or shard load.
func (s *Index) route(v bitvec.Vector) int32 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range v.Words() {
		for shift := 0; shift < 64; shift += 8 {
			h ^= (w >> shift) & 0xff
			h *= prime64
		}
	}
	return int32(h % uint64(s.numShards))
}

// loadStates reads every shard's current snapshot. The slice is the
// query's view of the index: each element is immutable, so the query
// answers from a consistent per-shard epoch no matter what writers
// and compactions do meanwhile.
func (s *Index) loadStates() []*state {
	out := make([]*state, s.numShards)
	for i := range out {
		out[i] = s.shards[i].Load()
	}
	return out
}

// Dims returns the dimensionality of indexed vectors (0 while the
// index is empty and has never seen a vector).
func (s *Index) Dims() int { return int(s.dims.Load()) }

// Len returns the number of live vectors (inserted and not deleted,
// whether indexed or still in a delta buffer).
func (s *Index) Len() int { return int(s.live.Load()) }

// NumShards returns the shard count.
func (s *Index) NumShards() int { return s.numShards }

// Engine returns the registry name of the per-shard engine.
func (s *Index) Engine() string { return s.engine }

// Options returns the build options applied to every shard.
func (s *Index) Options() core.Options { return s.opts }

// Vector returns the live vector with the given global id. The
// returned vector shares storage with the index and must not be
// modified — except over a file mapping, where it is an owned clone
// (a view would read unmapped pages after Close). After Close, a
// mapped index reports every id as absent.
func (s *Index) Vector(id int32) (bitvec.Vector, bool) {
	s.mu.Lock()
	si, ok := s.owner[id]
	s.mu.Unlock()
	if !ok {
		return bitvec.Vector{}, false
	}
	if s.acquireMapping() != nil {
		return bitvec.Vector{}, false
	}
	defer s.releaseMapping()
	sh := s.shards[si].Load()
	if pos, ok := sh.pos(id); ok && !sh.dead[id] {
		v := sh.built.Vector(pos)
		if s.mapping != nil {
			v = v.Clone()
		}
		return v, true
	}
	for _, e := range sh.delta {
		if e.id == id {
			return e.vec, true
		}
	}
	return bitvec.Vector{}, false
}

// Insert adds a vector and returns its assigned global id. The
// vector lands in its shard's delta buffer — visible to searches
// immediately, folded into the built index by the next compaction
// (explicit or auto-triggered). With a WAL attached, Insert returns
// only after the record is durable; an insert whose WAL append fails
// is rolled back and not acknowledged. The vector is retained;
// callers must not mutate it afterwards.
func (s *Index) Insert(v bitvec.Vector) (int32, error) {
	if v.Dims() == 0 {
		return 0, fmt.Errorf("shard: cannot insert zero-dimensional vector: %w", engine.ErrInvalidQuery)
	}
	s.mu.Lock()
	if d := s.dims.Load(); d == 0 {
		s.dims.Store(int32(v.Dims()))
	} else if v.Dims() != int(d) {
		s.mu.Unlock()
		return 0, fmt.Errorf("shard: vector has %d dims, index has %d: %w", v.Dims(), d, engine.ErrDimMismatch)
	}
	id := s.nextID
	s.nextID++
	si := s.route(v)
	s.shards[si].Store(s.shards[si].Load().withInsert(deltaEntry{id: id, vec: v}))
	s.epoch.Add(1)
	s.owner[id] = si
	s.live.Add(1)
	// The WAL record is written (buffered, no fsync) while still
	// holding the writer lock: SaveFile checkpoints — snapshot cut
	// plus log truncation — under the same lock, so every record
	// physically in the log belongs to an update some snapshot cut
	// after it captured. Only the fsync happens off-lock, group-
	// committed with concurrent writers.
	w := s.wal
	var target int64
	var werr error
	if w != nil {
		target, werr = w.Write(wal.Record{Op: wal.OpInsert, ID: id, Dims: v.Dims(), Words: v.Words()})
	}
	s.mu.Unlock()
	if w != nil {
		if werr == nil {
			werr = w.Sync(target)
		}
		if werr != nil {
			// The write cannot be acknowledged as durable: undo it. The
			// id stays burned (never reused). If a racing compaction
			// already folded the entry into the built engine, tombstone
			// it there instead of unbuffering it.
			s.mu.Lock()
			cur := s.shards[si].Load()
			if _, folded := cur.pos(id); folded {
				s.shards[si].Store(cur.withDead(id))
			} else {
				next, _ := cur.withoutDelta(id)
				s.shards[si].Store(next)
			}
			s.epoch.Add(1)
			delete(s.owner, id)
			s.live.Add(-1)
			s.mu.Unlock()
			return 0, fmt.Errorf("shard: insert %d: %w", id, werr)
		}
	}
	s.maybeAutoCompact(si)
	return id, nil
}

// Delete removes the vector with the given global id. Deletes of
// indexed vectors are tombstoned (filtered from every search) until
// compaction physically drops them; deletes of delta-buffered vectors
// take effect directly. With a WAL attached, Delete returns only
// after the record is durable. Returns ErrNotFound if id is not live.
func (s *Index) Delete(id int32) error {
	// Deleting a built vector captures it for WAL-failure rollback,
	// which reads the built engine's (possibly mapped) storage.
	if err := s.acquireMapping(); err != nil {
		return fmt.Errorf("delete %d: %w", id, err)
	}
	defer s.releaseMapping()
	s.mu.Lock()
	si, ok := s.owner[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("shard: delete %d: %w", id, ErrNotFound)
	}
	sh := s.shards[si].Load()
	var removed deltaEntry
	if pos, ok := sh.pos(id); ok && !sh.dead[id] {
		removed = deltaEntry{id: id, vec: sh.built.Vector(pos)}
		s.shards[si].Store(sh.withDead(id))
	} else {
		var next *state
		next, removed = sh.withoutDelta(id)
		s.shards[si].Store(next)
	}
	s.epoch.Add(1)
	delete(s.owner, id)
	s.live.Add(-1)
	// Record written under the writer lock, fsynced outside it — see
	// Insert for why the ordering matters to SaveFile's checkpoint.
	w := s.wal
	var target int64
	var werr error
	if w != nil {
		target, werr = w.Write(wal.Record{Op: wal.OpDelete, ID: id})
	}
	s.mu.Unlock()
	if w != nil {
		if werr == nil {
			werr = w.Sync(target)
		}
		if werr != nil {
			// Undo: the delete was not acknowledged as durable. A racing
			// compaction may have swapped states meanwhile — if the new
			// engine still holds the vector, clearing its tombstone
			// suffices; if compaction physically dropped it, re-buffer
			// the vector captured above.
			s.mu.Lock()
			cur := s.shards[si].Load()
			if _, held := cur.pos(id); held {
				s.shards[si].Store(cur.withoutDead(id))
			} else {
				s.shards[si].Store(cur.withInsert(removed))
			}
			s.epoch.Add(1)
			s.owner[id] = si
			s.live.Add(1)
			s.mu.Unlock()
			return fmt.Errorf("shard: delete %d: %w", id, werr)
		}
	}
	s.maybeAutoCompact(si)
	return nil
}

// Compact folds every shard's update buffers into its built index:
// tombstoned vectors are dropped, delta vectors are indexed, and the
// buffers reset. Only dirty shards rebuild, fanned out over the
// BuildParallelism pool, entirely outside the writer lock — searches
// and updates proceed concurrently against the pre-compaction
// snapshots for the whole rebuild, and the new engines swap in under
// a brief critical section at the end. Updates that land during the
// rebuild survive the swap: fresh inserts stay in the delta buffer,
// and deletes of just-rebuilt vectors carry over as tombstones.
// Global ids are preserved. Concurrent Compact calls serialize.
func (s *Index) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.statusMu.Lock()
	s.status.Running = true
	s.statusMu.Unlock()
	start := time.Now()
	err := s.compactLocked()
	s.statusMu.Lock()
	s.status.Running = false
	s.status.Runs++
	s.status.LastMillis = time.Since(start).Milliseconds()
	s.status.LastError = ""
	if err != nil {
		s.status.LastError = err.Error()
	}
	s.statusMu.Unlock()
	return err
}

// CompactAsync starts a compaction in the background unless one is
// already pending or running, reporting whether a new run started.
// Poll CompactionStatus (or the server's /stats) for completion; a
// failed run surfaces through CompactionStatus.LastError.
func (s *Index) CompactAsync() bool {
	return s.startBackgroundCompact()
}

// CompactionStatus reports whether a compaction is in flight and how
// the last run went.
func (s *Index) CompactionStatus() CompactionStatus {
	s.statusMu.Lock()
	defer s.statusMu.Unlock()
	st := s.status
	st.Running = st.Running || s.compactPending.Load()
	return st
}

// needsAutoCompact reports whether a shard snapshot's pending updates
// have reached the configured buffer threshold
// (Options.AutoCompactDelta; 0 disables the policy).
func (s *Index) needsAutoCompact(sh *state) bool {
	threshold := int(s.autoCompact.Load())
	return threshold > 0 && len(sh.delta)+len(sh.dead) >= threshold
}

// maybeAutoCompact triggers a background compaction when the shard
// that just absorbed an update has crossed the buffer threshold.
func (s *Index) maybeAutoCompact(si int32) {
	if s.needsAutoCompact(s.shards[si].Load()) {
		s.startBackgroundCompact()
	}
}

// startBackgroundCompact spawns one background compaction run,
// deduplicating concurrent triggers: while a run is pending, further
// triggers are no-ops (the pending run will fold their updates too).
func (s *Index) startBackgroundCompact() bool {
	if !s.compactPending.CompareAndSwap(false, true) {
		return false
	}
	select {
	case <-s.closed:
		s.compactPending.Store(false)
		return false
	default:
	}
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		// Errors are recorded in CompactionStatus.LastError; the index
		// keeps serving from the pre-compaction snapshots either way.
		err := s.Compact()
		s.compactPending.Store(false)
		// Updates that raced the run found compactPending set and did
		// not trigger, and the run folded only what it captured at its
		// start: if that left a shard at or over the threshold and no
		// further update arrives, nothing else would ever fold it. A
		// failed run is not retried here — the next update re-triggers.
		if err != nil {
			return
		}
		for i := range s.shards {
			if s.needsAutoCompact(s.shards[i].Load()) {
				s.startBackgroundCompact()
				return
			}
		}
	}()
	return true
}

// compactLocked is the rebuild pipeline; the caller holds compactMu.
// It captures the dirty shards' current snapshots, rebuilds each off
// the writer lock, then swaps the results in under one brief critical
// section, reconciling updates that raced the rebuild. The successor
// states it fills in are unpublished until the final Store, which is
// why it is a designated snapshot writer.
func (s *Index) compactLocked() error {
	// The rebuild reads every dirty shard's built vectors, which over a
	// mapping alias mapped pages, so the whole run brackets the mapping.
	// The rebuilt engines pack what they read into arenas of their own
	// and keep no view of it; the mapping stays attached for the shards
	// that still read it, until Index.Close.
	if err := s.acquireMapping(); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	defer s.releaseMapping()
	type captured struct {
		i  int
		st *state
	}
	var caps []captured
	for i := range s.shards {
		if st := s.shards[i].Load(); st.dirty() {
			caps = append(caps, captured{i, st})
		}
	}
	if len(caps) == 0 {
		return nil
	}
	type rebuilt struct {
		built engine.Engine
		ids   []int32
	}
	results := make([]rebuilt, len(caps))
	err := core.ForEach(s.opts.BuildParallelism, len(caps), func(ci int) error {
		st := caps[ci].st
		// Survivors and delta entries, both ascending, merged by id: the
		// new builtIDs ascend (state.pos searches them). Delta ids are
		// newer than every built id but for a rolled-back delete's, so the
		// merge is all but always a concatenation.
		ids := make([]int32, 0, st.live())
		vecs := make([]bitvec.Vector, 0, st.live())
		delta := st.delta
		for j, gid := range st.builtIDs {
			for ; len(delta) > 0 && delta[0].id < gid; delta = delta[1:] {
				ids = append(ids, delta[0].id)
				vecs = append(vecs, delta[0].vec)
			}
			if !st.dead[gid] {
				ids = append(ids, gid)
				vecs = append(vecs, st.built.Vector(int32(j)))
			}
		}
		for _, e := range delta {
			ids = append(ids, e.id)
			vecs = append(vecs, e.vec)
		}
		rb := rebuilt{ids: ids}
		if len(vecs) > 0 {
			built, err := s.buildInner(vecs, len(caps))
			if err != nil {
				return fmt.Errorf("shard %d: compact: %w", caps[ci].i, err)
			}
			rb.built = built
		}
		results[ci] = rb
		return nil
	})
	if err != nil {
		return err
	}
	// Swap: the only part that excludes writers. Updates that arrived
	// during the rebuild are reconciled against the new engine — a
	// delete of a folded vector becomes a tombstone (it is physically
	// inside the new engine; owner no longer lists it), and inserts
	// newer than the capture stay in the delta buffer.
	s.mu.Lock()
	for ci, c := range caps {
		rb := results[ci]
		cur := s.shards[c.i].Load()
		next := &state{built: rb.built, builtIDs: rb.ids, dead: map[int32]bool{}, epoch: cur.epoch + 1}
		for _, gid := range rb.ids {
			if _, alive := s.owner[gid]; !alive {
				next.dead[gid] = true
			}
		}
		for _, e := range cur.delta {
			if _, folded := next.pos(e.id); !folded {
				next.delta = append(next.delta, e)
			}
		}
		s.shards[c.i].Store(next)
		s.epoch.Add(1)
	}
	s.mu.Unlock()
	return nil
}

// ensureWorkers lazily starts the fan-out pool: min(GOMAXPROCS,
// numShards) workers shared by every query. They exit on Close.
func (s *Index) ensureWorkers() {
	//gphlint:ignore hotpath one-time pool startup behind workerOnce
	s.workerOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		if n > s.numShards {
			n = s.numShards
		}
		for i := 0; i < n; i++ {
			//gphlint:ignore hotpath worker goroutines start once per index lifetime
			go func() {
				for {
					select {
					case task := <-s.tasks:
						task()
					case <-s.closed:
						return
					}
				}
			}()
		}
	})
}

// fanOut runs the per-shard tasks of one query: the last inline in
// the caller (which must wait anyway), the rest offered to the pool.
// A task no idle worker picks up immediately runs inline too, so a
// query is never queued behind another and the goroutine count stays
// bounded by the pool size however many queries are in flight.
func (s *Index) fanOut(tasks []func()) {
	last := len(tasks) - 1
	if last > 0 {
		s.ensureWorkers()
		var wg sync.WaitGroup
		wg.Add(last)
		for _, t := range tasks[:last] {
			t := t
			//gphlint:ignore hotpath one wrapper per off-loaded shard task; the defer guards the WaitGroup if the task panics
			wrapped := func() {
				//gphlint:ignore hotpath see wrapper note above
				defer wg.Done()
				t()
			}
			select {
			case s.tasks <- wrapped:
			default:
				wrapped()
			}
		}
		tasks[last]()
		wg.Wait()
		return
	}
	if last == 0 {
		tasks[0]()
	}
}

// Search returns the global ids of all live vectors within Hamming
// distance tau of q, in ascending id order — the same id set a single
// core index over the live vectors would return. Shards are probed
// from their current snapshots (tombstones filtered, delta buffers
// linearly scanned) concurrently over the fan-out pool, or inline
// when at most one shard is populated. With a result cache configured
// (Options.CacheBytes / ConfigurePlan), repeated queries return the
// cached slice itself: callers must treat results as read-only. The
// cached-hit path takes no locks beyond one cache-shard mutex and
// performs no allocations.
//
//gph:hotpath
func (s *Index) Search(q bitvec.Vector, tau int) ([]int32, error) {
	return s.search(q, tau, nil)
}

// SearchStats is Search with the work accounted: every populated
// shard's engine.Stats summed over the count fields and phase nanos
// (so the nanos are work done, not wall time, when shards ran
// concurrently), plus one candidate per delta entry scanned. Scanned
// reports that some shard's engine answered by a verified scan (that
// shard contributes its whole arena as candidates);
// CacheHit that the result cache answered, in which case only the
// result count is known and Candidates repeats it. Thresholds is left
// empty — shards allocate independently.
func (s *Index) SearchStats(q bitvec.Vector, tau int) ([]int32, *engine.Stats, error) {
	st := &engine.Stats{}
	ids, err := s.search(q, tau, st)
	if err != nil {
		return nil, nil, err
	}
	st.Results = len(ids)
	return ids, st, nil
}

// search is the cached pipeline behind Search and SearchStats; a nil
// st asks for no accounting.
//
//gph:hotpath
func (s *Index) search(q bitvec.Vector, tau int, st *engine.Stats) ([]int32, error) {
	var key plan.Key
	var e1 uint64
	if s.cache != nil {
		// Epoch reads before the snapshot loads inside searchUncached:
		// a result is cached only if no swap was published between this
		// read and the re-read after the search, so an entry keyed e1
		// provably reflects every update acknowledged before e1. Only
		// valid queries are ever stored (Put runs on success), so a hit
		// cannot bypass validation.
		e1 = s.epoch.Load()
		key = plan.Key{Hash: plan.HashWords(q.Words(), uint64(q.Dims())), Epoch: e1, Tau: int32(tau), K: -1, Eng: s.engID}
		if ids, _, ok := s.cache.Get(key); ok {
			if st != nil {
				st.CacheHit = true
				st.Candidates = len(ids)
			}
			return ids, nil
		}
	}
	out, err := s.searchUncached(q, tau, st)
	if s.cache != nil && err == nil && s.epoch.Load() == e1 {
		s.cache.Put(key, out, nil)
	}
	return out, err
}

// searchUncached brackets the fan-out pipeline with the mapping
// reference: release is explicit — one success path, one failure path
// — so the per-query pipeline stays defer-free.
//
//gph:hotpath
func (s *Index) searchUncached(q bitvec.Vector, tau int, st *engine.Stats) ([]int32, error) {
	if err := s.acquireMapping(); err != nil {
		return nil, err
	}
	out, err := s.searchFanOut(q, tau, st)
	s.releaseMapping()
	return out, err
}

// searchFanOut is the fan-out search pipeline behind the cache; the
// caller holds the mapping reference.
//
//gph:hotpath
func (s *Index) searchFanOut(q bitvec.Vector, tau int, st *engine.Stats) ([]int32, error) {
	// Snapshots load before validation: an insert publishes its shard
	// state after storing the adopted dimensionality, so any state
	// these snapshots contain is covered by the dims value validate
	// reads afterwards — a query racing the first-ever insert cannot
	// slip a mismatched vector past validation into the delta scan.
	states := s.loadStates()
	if err := s.validateQuery(q, tau); err != nil {
		return nil, err
	}
	tasks := make([]func(), 0, len(states))
	perShard := make([][]int32, len(states))
	errs := make([]error, len(states))
	// Shards run concurrently, so each accounts into its own Stats.
	var perStats []engine.Stats
	if st != nil {
		perStats = make([]engine.Stats, len(states))
	}
	for i, sh := range states {
		if !sh.populated() {
			continue
		}
		i, sh := i, sh
		//gphlint:ignore hotpath one task closure per populated shard, bounded by shard count
		tasks = append(tasks, func() {
			var shSt *engine.Stats
			if perStats != nil {
				shSt = &perStats[i]
			}
			perShard[i], errs[i] = sh.search(q, tau, shSt)
		})
	}
	s.fanOut(tasks)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	total := 0
	for _, ids := range perShard {
		total += len(ids)
	}
	out := make([]int32, 0, total)
	for _, ids := range perShard {
		out = append(out, ids...)
	}
	slices.Sort(out)
	for i := range perStats {
		addStats(st, &perStats[i])
	}
	return out, nil
}

// addStats sums one shard's accounting into the query's.
func addStats(sum, sh *engine.Stats) {
	sum.AllocNanos += sh.AllocNanos
	sum.ProbeNanos += sh.ProbeNanos
	sum.VerifyNanos += sh.VerifyNanos
	sum.EstimatedCN += sh.EstimatedCN
	sum.AllocRounds += sh.AllocRounds
	sum.CNScans += sh.CNScans
	sum.CNProbes += sh.CNProbes
	sum.CNKeys += sh.CNKeys
	sum.PlanCost += sh.PlanCost
	sum.ScanCost += sh.ScanCost
	sum.Scanned = sum.Scanned || sh.Scanned
	sum.Signatures += sh.Signatures
	sum.KeyScans += sh.KeyScans
	sum.KeysScanned += sh.KeysScanned
	sum.SumPostings += sh.SumPostings
	sum.Candidates += sh.Candidates
}

// search answers one shard's share of a range query: built-index
// results mapped to global ids with tombstones dropped, then the
// delta scan. builtIDs is ascending, so the mapped ids stay sorted.
// The engine's own Search answers — it weighs its index against a scan
// itself. A non-nil st receives the shard's accounting.
func (sh *state) search(q bitvec.Vector, tau int, st *engine.Stats) ([]int32, error) {
	var out []int32
	if sh.built != nil {
		var local []int32
		var err error
		if st != nil {
			var built *engine.Stats
			if local, built, err = sh.built.SearchStats(q, tau); err == nil {
				*st = *built
			}
		} else {
			local, err = sh.built.Search(q, tau)
		}
		if err != nil {
			return nil, err
		}
		out = make([]int32, 0, len(local))
		for _, lid := range local {
			gid := sh.builtIDs[lid]
			if !sh.dead[gid] {
				out = append(out, gid)
			}
		}
	}
	for _, e := range sh.delta {
		if q.HammingWithin(e.vec, tau) {
			out = append(out, e.id)
		}
	}
	if st != nil {
		st.Candidates += len(sh.delta)
	}
	return out, nil
}

// SearchKNN returns the k nearest live neighbours of q by Hamming
// distance, ties broken by ascending global id — matching a single
// index's SearchKNN over the same live set. Each shard contributes
// its local top k (requesting k plus its tombstone count from the
// built index so filtered entries cannot displace true neighbours);
// the per-shard lists merge through a max-heap bounded at k. For
// τ-bounded engines the answer is best-effort within the build
// threshold, exactly like a single such index: neighbours beyond it
// are never reported, whether indexed or delta-buffered. kNN results
// cache like range results (ids and distances both), keyed on the
// requested k.
func (s *Index) SearchKNN(q bitvec.Vector, k int) ([]core.Neighbor, error) {
	var key plan.Key
	var e1 uint64
	if s.cache != nil && k > 0 {
		e1 = s.epoch.Load()
		key = plan.Key{Hash: plan.HashWords(q.Words(), uint64(q.Dims())), Epoch: e1, Tau: -1, K: int32(k), Eng: s.engID}
		if ids, dists, ok := s.cache.Get(key); ok {
			out := make([]core.Neighbor, len(ids))
			for i := range ids {
				out[i] = core.Neighbor{ID: ids[i], Distance: int(dists[i])}
			}
			return out, nil
		}
	}
	out, err := s.searchKNNUncached(q, k)
	if s.cache != nil && k > 0 && err == nil && s.epoch.Load() == e1 {
		ids := make([]int32, len(out))
		dists := make([]int32, len(out))
		for i, n := range out {
			ids[i] = n.ID
			dists[i] = int32(n.Distance)
		}
		s.cache.Put(key, ids, dists)
	}
	return out, err
}

// searchKNNUncached is the fan-out kNN pipeline behind the cache.
func (s *Index) searchKNNUncached(q bitvec.Vector, k int) ([]core.Neighbor, error) {
	if err := s.acquireMapping(); err != nil {
		return nil, err
	}
	defer s.releaseMapping()
	// Load before validate — see Search for the first-insert race.
	states := s.loadStates()
	if err := s.validateQuery(q, 0); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("shard: k must be positive, got %d: %w", k, core.ErrInvalidQuery)
	}
	// Clamp to the snapshot's live count before sizing any buffer: k
	// is caller- (and, through /knn, remote-) controlled, and the
	// bounded heap preallocates k slots.
	snapLive := 0
	for _, sh := range states {
		snapLive += sh.live()
	}
	if k > snapLive {
		k = snapLive
	}
	tasks := make([]func(), 0, len(states))
	perShard := make([][]core.Neighbor, len(states))
	errs := make([]error, len(states))
	for i, sh := range states {
		if !sh.populated() {
			continue
		}
		i, sh := i, sh
		tasks = append(tasks, func() {
			perShard[i], errs[i] = sh.searchKNN(q, k, s.maxTau)
		})
	}
	s.fanOut(tasks)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	h := newBoundedHeap(k)
	for _, ns := range perShard {
		for _, n := range ns {
			h.offer(n)
		}
	}
	return h.sorted(), nil
}

// searchKNN answers one shard's share of a kNN query. maxTau > 0
// means the shard engine is τ-bounded: its built index answers kNN
// best-effort within that radius, so delta entries beyond it are
// excluded too — otherwise the same live vector would appear in
// results while buffered and vanish after compaction.
func (sh *state) searchKNN(q bitvec.Vector, k, maxTau int) ([]core.Neighbor, error) {
	var out []core.Neighbor
	if sh.built != nil {
		local, err := sh.built.SearchKNN(q, k+len(sh.dead))
		if err != nil {
			return nil, err
		}
		for _, n := range local {
			gid := sh.builtIDs[n.ID]
			if !sh.dead[gid] {
				out = append(out, core.Neighbor{ID: gid, Distance: n.Distance})
				if len(out) == k {
					break
				}
			}
		}
	}
	for _, e := range sh.delta {
		d := q.Hamming(e.vec)
		if maxTau > 0 && d > maxTau {
			continue
		}
		out = append(out, core.Neighbor{ID: e.id, Distance: d})
	}
	return out, nil
}

// SearchBatch answers many queries using up to parallelism workers
// (≤ 0 selects GOMAXPROCS); each query then fans out across shards as
// Search does. Results align with queries by position; a failing
// query nils only its own slot and the returned error joins every
// per-query failure, mirroring the single-index SearchBatch contract.
func (s *Index) SearchBatch(queries []bitvec.Vector, tau int, parallelism int) ([][]int32, error) {
	return engine.BatchSearch(queries, parallelism, func(q bitvec.Vector) ([]int32, error) {
		return s.Search(q, tau)
	})
}

// validateQuery applies the core query contract at the sharded layer,
// so delta-only and empty shards reject bad input exactly as built
// shards do. An index that has never seen a vector accepts any query
// dimensionality (and answers with no results).
func (s *Index) validateQuery(q bitvec.Vector, tau int) error {
	if tau < 0 {
		return fmt.Errorf("shard: threshold %d: %w", tau, engine.ErrNegativeTau)
	}
	if s.maxTau > 0 {
		// τ-bounded engines reject over-threshold queries; enforcing the
		// bound here keeps delta-buffered and built vectors behaving
		// identically (a single index would reject regardless of
		// compaction state).
		if err := engine.CheckTauBound(tau, s.maxTau); err != nil {
			return fmt.Errorf("shard: %w", err)
		}
	}
	if d := s.dims.Load(); d != 0 && q.Dims() != int(d) {
		return fmt.Errorf("shard: query has %d dims, index has %d: %w", q.Dims(), d, engine.ErrDimMismatch)
	}
	return nil
}

// OpenWAL opens (creating if absent) the write-ahead log at path,
// replays its records onto the index, and attaches it: every later
// Insert and Delete is durable before it returns, and a crash loses
// no acknowledged update — reopen the same snapshot and WAL to
// recover. A torn final record (crash mid-append) is truncated away;
// everything before it replays, and records the index's base
// snapshot already reflects are skipped (the residue of a crash
// between SaveFile's snapshot rename and its log truncation), so
// replayed counts only the records that mutated the index. Call
// once, before serving traffic; SaveFile checkpoints and truncates
// the log, Close shuts it down.
func (s *Index) OpenWAL(path string) (replayed int, err error) {
	// Reject a second attach before touching the index: replaying
	// first would double-apply every record before the check fired.
	s.mu.Lock()
	attached := s.wal != nil
	s.mu.Unlock()
	if attached {
		return 0, fmt.Errorf("shard: wal already attached")
	}
	l, recs, err := wal.Open(path)
	if err != nil {
		return 0, fmt.Errorf("shard: %w", err)
	}
	// Replay verifies pre-snapshot inserts against the built engines'
	// (possibly mapped) vectors.
	if err := s.acquireMapping(); err != nil {
		l.Close()
		return 0, err
	}
	defer s.releaseMapping()
	for i, r := range recs {
		applied, err := s.applyRecord(r)
		if err != nil {
			l.Close()
			return 0, fmt.Errorf("shard: wal replay record %d: %w", i, err)
		}
		if applied {
			replayed++
		}
	}
	s.mu.Lock()
	if s.wal != nil {
		s.mu.Unlock()
		l.Close()
		return 0, fmt.Errorf("shard: wal already attached")
	}
	s.wal = l
	s.mu.Unlock()
	return replayed, nil
}

// WALSizeBytes reports the attached write-ahead log's current size
// (0 when no WAL is attached) — the volume of updates a crash would
// replay, and the operator's cue that a checkpoint Save is due.
func (s *Index) WALSizeBytes() int64 {
	s.mu.Lock()
	w := s.wal
	s.mu.Unlock()
	if w == nil {
		return 0
	}
	return w.Size()
}

// applyRecord replays one WAL record: the logged update re-executes
// with its original global id, without re-appending to the log.
// Replay is idempotent against records the base snapshot already
// reflects — required for crash safety, because a crash between
// SaveFile's snapshot rename and its log truncation reopens the new
// snapshot with the stale full log. Ids are assigned and logged
// under the same lock SaveFile holds, so every insert record with
// id < nextID provably predates the snapshot: it is skipped (after
// verifying, when the id is still live, that the stored vector
// matches — a mismatch means the log belongs to a different index).
// Deletes of ids below nextID that are no longer live likewise skip;
// a delete of a never-assigned id is a real pairing error. applied
// reports whether the record mutated the index.
func (s *Index) applyRecord(r wal.Record) (applied bool, err error) {
	switch r.Op {
	case wal.OpInsert:
		v := bitvec.FromWords(r.Dims, r.Words)
		s.mu.Lock()
		defer s.mu.Unlock()
		if d := s.dims.Load(); d == 0 {
			s.dims.Store(int32(r.Dims))
		} else if r.Dims != int(d) {
			return false, fmt.Errorf("insert %d has %d dims, index has %d", r.ID, r.Dims, d)
		}
		if r.ID < s.nextID {
			if si, live := s.owner[r.ID]; live {
				if got, ok := s.vectorInShard(si, r.ID); !ok || !got.Equal(v) {
					return false, fmt.Errorf("insert %d does not match the snapshot's vector", r.ID)
				}
			}
			return false, nil // predates the snapshot: already reflected (or superseded by a delete)
		}
		si := s.route(v)
		s.shards[si].Store(s.shards[si].Load().withInsert(deltaEntry{id: r.ID, vec: v}))
		s.epoch.Add(1)
		s.owner[r.ID] = si
		s.live.Add(1)
		s.nextID = r.ID + 1
		return true, nil
	case wal.OpDelete:
		s.mu.Lock()
		defer s.mu.Unlock()
		si, ok := s.owner[r.ID]
		if !ok {
			if r.ID < s.nextID {
				return false, nil // predates the snapshot: the delete is already reflected
			}
			return false, fmt.Errorf("delete %d: %w", r.ID, ErrNotFound)
		}
		sh := s.shards[si].Load()
		if _, ok := sh.pos(r.ID); ok && !sh.dead[r.ID] {
			s.shards[si].Store(sh.withDead(r.ID))
		} else {
			next, _ := sh.withoutDelta(r.ID)
			s.shards[si].Store(next)
		}
		s.epoch.Add(1)
		delete(s.owner, r.ID)
		s.live.Add(-1)
		if r.ID >= s.nextID {
			s.nextID = r.ID + 1
		}
		return true, nil
	}
	return false, fmt.Errorf("unknown op %d", r.Op)
}

// vectorInShard resolves a live id's vector from one shard's current
// snapshot; the caller holds s.mu (Vector, the public variant, takes
// it).
func (s *Index) vectorInShard(si, id int32) (bitvec.Vector, bool) {
	sh := s.shards[si].Load()
	if pos, ok := sh.pos(id); ok && !sh.dead[id] {
		return sh.built.Vector(pos), true
	}
	for _, e := range sh.delta {
		if e.id == id {
			return e.vec, true
		}
	}
	return bitvec.Vector{}, false
}

// Close releases the fan-out workers, waits for any background
// compaction to finish, and syncs and closes the attached WAL. A
// heap-backed index remains readable (searches keep working); updates
// requiring durability fail once the WAL is closed — the log stays
// attached so a post-Close Insert/Delete errors and rolls back
// instead of silently succeeding without durability. An index opened
// from a file mapping (OpenFile with engine.OpenMMap) additionally
// releases the mapping: searches, deletes and compactions after Close
// fail with engine.ErrIndexClosed, and the pages unmap once in-flight
// ones drain — Close never blocks on them and never lets them fault.
// Idempotent and safe to race with searches.
func (s *Index) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		s.bg.Wait()
		s.mu.Lock()
		w := s.wal
		s.mu.Unlock()
		if w != nil {
			err = w.Close()
		}
		if s.mapping != nil {
			if merr := s.mapping.Close(); err == nil {
				err = merr
			}
		}
	})
	return err
}

// Stats describes one shard for observability endpoints: how many
// vectors its built index covers, how much unindexed state has
// accumulated (compaction folds Delta and Tombstones to zero), and
// its resident size under the repository's shared accounting.
type Stats struct {
	Indexed    int    `json:"indexed"`    // vectors in the built index (tombstones included)
	Delta      int    `json:"delta"`      // unindexed inserts pending compaction
	Tombstones int    `json:"tombstones"` // deletes pending compaction
	SizeBytes  int64  `json:"size_bytes"` // built index resident size
	Epoch      uint64 `json:"epoch"`      // snapshot swaps this shard has published
}

// ShardStats reports per-shard occupancy and buffer depth, indexed by
// shard number.
func (s *Index) ShardStats() []Stats {
	out := make([]Stats, s.numShards)
	for i := range s.shards {
		sh := s.shards[i].Load()
		out[i] = Stats{
			Indexed:    len(sh.builtIDs),
			Delta:      len(sh.delta),
			Tombstones: len(sh.dead),
			Epoch:      sh.epoch,
		}
		if sh.built != nil {
			out[i].SizeBytes = sh.built.SizeBytes()
		}
	}
	return out
}

// SizeBytes reports the total resident size across shards: built
// indexes plus the raw vectors sitting in delta buffers.
func (s *Index) SizeBytes() int64 {
	var total int64
	for i := range s.shards {
		sh := s.shards[i].Load()
		if sh.built != nil {
			total += sh.built.SizeBytes()
		}
		for _, e := range sh.delta {
			total += int64(8 * len(e.vec.Words()))
		}
	}
	return total
}
