package shard

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"gph/internal/binio"
	"gph/internal/bitvec"
	"gph/internal/core"
	"gph/internal/engine"
	"gph/internal/mmapio"
)

// shardMagic identifies the sharded container format: one
// length-prefixed engine blob per built shard (each carrying its own
// engine magic), together with the engine name — so Load can dispatch
// and Compact can rebuild — the id mappings and the update buffers the
// blobs do not know about. Each shard's id arrays and nested blob are
// preceded by 8-byte alignment padding, so a mapped container hands
// every nested loader an 8-aligned source and the engines' own aligned
// sections alias the mapping instead of being copy-decoded. The nested
// blobs follow whatever format their engine writes; a container holding
// blobs of a superseded format fails at the nested load.
const shardMagic = "GPHSH05\n"

// Save serializes the sharded index: the container header (dims,
// shard count, id counter, engine name, raw build options), then per
// shard its global-id mapping, its built engine as a nested blob, its
// tombstone set (sorted) and its delta buffer (insertion order).
// Output is byte-reproducible: saving a loaded index reproduces the
// original bytes.
//
// Save holds the writer lock — updates wait for the duration, while
// searches proceed against the published snapshots. It does not touch
// an attached WAL: use SaveFile for the durable checkpoint sequence
// (atomic snapshot replace, then WAL truncation).
//
// The full build configuration is persisted — a compaction after Load
// rebuilds shards exactly as the original index would — with the
// exception of runtime-only fields: a caller-supplied
// Options.Workload (a pointer the container cannot capture;
// post-Load compactions fall back to the surrogate workload),
// BuildParallelism (wall-clock only; resets to GOMAXPROCS), and the
// lifecycle fields WALPath and AutoCompactDelta (reattach and
// reconfigure on open). TestOptionsRoundTrip holds the
// list: a new Options field is written here or named there.
func (s *Index) Save(w io.Writer) error {
	// Serializing the built engines reads their (possibly mapped)
	// arenas.
	if err := s.acquireMapping(); err != nil {
		return err
	}
	defer s.releaseMapping()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saveLocked(w)
}

// saveLocked serializes the container; the caller holds s.mu.
func (s *Index) saveLocked(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.Magic(shardMagic)
	bw.Int(int(s.dims.Load()))
	bw.Int(s.numShards)
	bw.Int(int(s.nextID))
	bw.String(s.engine)
	writeOptions(bw, s.opts)
	for i := range s.shards {
		sh := s.shards[i].Load()
		// Alignment padding before the id arrays and the nested blob:
		// the blob payload must start 8-aligned so the nested engine's
		// own aligned sections land on element boundaries within the
		// mapped container (see binio.Writer.Align8).
		bw.Align8()
		bw.Int32s(sh.builtIDs)
		if sh.built != nil {
			var blob bytes.Buffer
			if err := sh.built.Save(&blob); err != nil {
				return fmt.Errorf("shard: saving shard %d: %w", i, err)
			}
			bw.Align8()
			bw.ByteSlice(blob.Bytes())
		}
		bw.Align8()
		bw.Int32s(sortedIDs(sh.dead))
		bw.Int(len(sh.delta))
		for _, e := range sh.delta {
			bw.Uint32(uint32(e.id))
			for _, word := range e.vec.Words() {
				bw.Uint64(word)
			}
		}
	}
	return bw.Flush()
}

// SaveFile checkpoints the index to path with crash-safe ordering:
// the container is written to a temporary sibling file, fsynced, and
// atomically renamed over path (the directory entry fsynced too);
// only then is an attached WAL truncated. The writer lock spans the
// whole sequence, and updates write their WAL records under that
// same lock (fsyncing outside it), so every record physically in the
// log at truncation time belongs to an update the snapshot captured
// — a crash at any point leaves a recoverable pair: either the old
// snapshot with the full log, or the new snapshot (which contains
// every acknowledged update) with the truncated log. In-flight
// fsync waiters whose records the truncation discarded complete
// successfully (wal.Log.Reset's epoch handling), acknowledged
// against the snapshot. Updates wait while the checkpoint runs;
// searches do not.
func (s *Index) SaveFile(path string) error {
	if err := s.acquireMapping(); err != nil {
		return err
	}
	defer s.releaseMapping()
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("shard: checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	if err := s.saveLocked(tmp); err != nil {
		tmp.Close()
		return err
	}
	// Checkpoint atomicity: the writer lock must pin owner/nextID and
	// every shard snapshot across the tmp write, rename and WAL reset,
	// so the syncs below deliberately run inside the critical section.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("shard: checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("shard: checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("shard: checkpoint: %w", err)
	}
	// The rename's directory entry must be durable before the log
	// truncates: otherwise a power loss could replay the filesystem to
	// the old snapshot while the truncation persisted — old snapshot +
	// empty log loses every update since the previous checkpoint.
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		serr := dir.Sync()
		dir.Close()
		if serr != nil {
			return fmt.Errorf("shard: checkpoint: syncing directory: %w", serr)
		}
	} else {
		return fmt.Errorf("shard: checkpoint: %w", err)
	}
	if s.wal != nil {
		if err := s.wal.Reset(); err != nil {
			return fmt.Errorf("shard: checkpointing wal: %w", err)
		}
	}
	return nil
}

// writeOptions persists every Options field Compact needs to rebuild
// shards faithfully.
func writeOptions(bw *binio.Writer, o core.Options) {
	bw.Int(o.NumPartitions)
	bw.Int(int(o.Init))
	bw.Int(boolToInt(o.NoRefine))
	bw.Int(int(o.Allocator))
	bw.Int(o.MaxTau)
	bw.Int(o.WorkloadSize)
	bw.Int(o.SampleSize)
	bw.Int64(o.EnumBudget)
	bw.Int64(o.Seed)
}

// readOptions reads what writeOptions wrote.
func readOptions(br *binio.Reader) core.Options {
	var o core.Options
	o.NumPartitions = br.Int()
	o.Init = core.InitKind(br.Int())
	o.NoRefine = br.Int() != 0
	o.Allocator = core.AllocatorKind(br.Int())
	o.MaxTau = br.Int()
	o.WorkloadSize = br.Int()
	o.SampleSize = br.Int()
	o.EnumBudget = br.Int64()
	o.Seed = br.Int64()
	return o
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func sortedIDs(set map[int32]bool) []int32 {
	out := make([]int32, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Load reads a sharded index written by Save, validating the id
// mappings against the nested per-shard indexes (every global id below
// the id counter and listed once across every shard's built ids and
// delta buffer, tombstoned or not, ids and tombstones strictly
// ascending within a shard as Save writes them, tombstones a subset of
// the built ids, delta dimensionality consistent). The container is
// decoded in place — a reader that is not a *binio.Source is read out
// into one buffer first — every shard's engine aliases its blob, and
// every shard is validated in full before Load returns, whatever r is
// (OpenFile's mapped mode is the one opener that leaves that to the
// first query).
func Load(r io.Reader) (*Index, error) {
	src, err := binio.SourceOf(r, len(shardMagic), func(m string) bool { return m == shardMagic })
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	return validated(loadDeferred(src))
}

// validated finishes a load for an opener that has read every byte:
// the checks the shards' engines' loaders left pending (the content
// tier of a GPH shard) run now, shards side by side, each fanning out
// over its own partitions, before the index is shared.
func validated(s *Index, err error) (*Index, error) {
	if err != nil {
		return nil, err
	}
	err = core.ForEach(0, len(s.shards), func(i int) error {
		if built := s.shards[i].Load().built; built != nil {
			if err := engine.Validate(built); err != nil {
				return fmt.Errorf("shard: loading shard %d index: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// loadDeferred is Load over the bytes in place, the shard engines'
// pending checks left pending. It assembles each shard's state before
// the index is visible to anyone, which is why it is a designated
// snapshot writer.
func loadDeferred(src *binio.Source) (*Index, error) {
	br := binio.NewReader(src)
	br.Magic(shardMagic)
	dims := br.Int()
	numShards := br.Int()
	nextID := br.Int()
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("shard: reading container header: %w", err)
	}
	if dims < 0 || dims > 1<<20 {
		return nil, fmt.Errorf("shard: implausible dimension count %d", dims)
	}
	if numShards < 1 || numShards > 1<<16 {
		return nil, fmt.Errorf("shard: implausible shard count %d", numShards)
	}
	if nextID < 0 || nextID > binio.MaxSliceLen {
		return nil, fmt.Errorf("shard: implausible id counter %d", nextID)
	}
	if dims == 0 && nextID != 0 {
		// dims is set by the first insert and never cleared, so a
		// dimensionless container cannot have assigned any id; a
		// nonzero counter would let zero-dimensional delta vectors
		// through and panic later searches.
		return nil, fmt.Errorf("shard: container has no dimensionality but id counter %d", nextID)
	}
	engineName := br.String()
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("shard: reading engine name: %w", err)
	}
	opts := readOptions(br)
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("shard: reading options: %w", err)
	}
	if opts.Init < core.InitGreedy || opts.Init > core.InitDD {
		return nil, fmt.Errorf("shard: persisted init kind %d unknown", int(opts.Init))
	}
	if opts.Allocator < core.AllocDP || opts.Allocator > core.AllocRR {
		return nil, fmt.Errorf("shard: persisted allocator kind %d unknown", int(opts.Allocator))
	}
	s, err := NewEngine(engineName, numShards, opts)
	if err != nil {
		return nil, err
	}
	s.dims.Store(int32(dims))
	s.nextID = int32(nextID)
	words := (dims + 63) / 64
	for i := int32(0); i < int32(numShards); i++ {
		sh := &state{dead: map[int32]bool{}}
		br.Align8()
		sh.builtIDs = br.Int32s()
		if err := br.Err(); err != nil {
			return nil, fmt.Errorf("shard: reading shard %d ids: %w", i, err)
		}
		for j, gid := range sh.builtIDs {
			if gid < 0 || int(gid) >= nextID {
				return nil, fmt.Errorf("shard: shard %d references id %d outside [0,%d)", i, gid, nextID)
			}
			if j > 0 && gid <= sh.builtIDs[j-1] {
				return nil, fmt.Errorf("shard: shard %d ids not strictly ascending at %d (%d after %d)", i, j, gid, sh.builtIDs[j-1])
			}
			if _, dup := s.owner[gid]; dup {
				return nil, fmt.Errorf("shard: id %d appears in two shards", gid)
			}
			s.owner[gid] = i
		}
		if len(sh.builtIDs) > 0 {
			br.Align8()
			blob := br.ByteSlice()
			if err := br.Err(); err != nil {
				return nil, fmt.Errorf("shard: reading shard %d index blob: %w", i, err)
			}
			// The blob is a view of the container's bytes, handed to the
			// nested loader as a Source: the shard engines' arenas alias
			// the mapping or the buffer the container was read into, and
			// the nested load adds no copy.
			built, err := engine.LoadAnyDeferred(binio.NewSource(blob))
			if err != nil {
				return nil, fmt.Errorf("shard: loading shard %d index: %w", i, err)
			}
			if built.Name() != engineName {
				return nil, fmt.Errorf("shard: shard %d blob is a %s index, container says %s", i, built.Name(), engineName)
			}
			if built.Len() != len(sh.builtIDs) {
				return nil, fmt.Errorf("shard: shard %d blob has %d vectors, id map has %d", i, built.Len(), len(sh.builtIDs))
			}
			if built.Dims() != dims {
				return nil, fmt.Errorf("shard: shard %d blob has %d dims, container has %d", i, built.Dims(), dims)
			}
			sh.built = built
		}
		br.Align8()
		dead := br.Int32s()
		for j, gid := range dead {
			if j > 0 && gid <= dead[j-1] {
				return nil, fmt.Errorf("shard: shard %d tombstones not strictly ascending at %d (%d after %d)", i, j, gid, dead[j-1])
			}
			if _, ok := sh.pos(gid); !ok {
				return nil, fmt.Errorf("shard: shard %d tombstone %d not in built index", i, gid)
			}
			sh.dead[gid] = true
		}
		deltaCount := br.Int()
		if err := br.Err(); err != nil {
			return nil, fmt.Errorf("shard: reading shard %d buffers: %w", i, err)
		}
		if deltaCount < 0 || deltaCount > nextID {
			return nil, fmt.Errorf("shard: shard %d has implausible delta count %d", i, deltaCount)
		}
		for d := 0; d < deltaCount; d++ {
			gid := int32(br.Uint32())
			ws := make([]uint64, words)
			for j := range ws {
				ws[j] = br.Uint64()
			}
			if err := br.Err(); err != nil {
				return nil, fmt.Errorf("shard: reading shard %d delta %d: %w", i, d, err)
			}
			if gid < 0 || int(gid) >= nextID {
				return nil, fmt.Errorf("shard: shard %d delta references id %d outside [0,%d)", i, gid, nextID)
			}
			if _, dup := s.owner[gid]; dup {
				return nil, fmt.Errorf("shard: id %d appears twice", gid)
			}
			sh.delta = append(sh.delta, deltaEntry{id: gid, vec: bitvec.FromWords(dims, ws)})
			s.owner[gid] = i
		}
		s.shards[i].Store(sh)
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("shard: reading container: %w", err)
	}
	// Tombstoned ids leave owner only now: until every shard is read they
	// stay in it, so no later shard's built ids or delta buffer can list
	// one again.
	for i := range s.shards {
		for gid := range s.shards[i].Load().dead {
			delete(s.owner, gid)
		}
	}
	s.live.Store(int64(len(s.owner)))
	return s, nil
}

// OpenFile opens the index file at path in the given mode: a sharded
// container, or any registered engine's own Save output, which is
// adopted as a one-shard index (see adopt). Both modes decode the file
// in place. With engine.OpenHeap it is read into one owned buffer and
// every loader's validation, content tier included, runs before
// OpenFile returns: a corrupt file fails here. With engine.OpenMMap it
// is mapped read-only and the built engines' arenas become borrowed
// slices over the mapping — decoding is O(1) in arena bytes (the id
// maps are still built, O(n) in ids), the kernel pages vectors in on
// demand, and the checks that read every arena byte (a GPH shard's
// content tier) wait for that shard's first query, which fails with a
// sticky error if they do; nothing ever faults. A mapped index's Close
// releases the mapping (searches after Close fail with
// engine.ErrIndexClosed), and the mapping outlives compaction: rebuilt
// engines keep vector views into it, so only Close unmaps.
func OpenFile(path string, mode engine.OpenMode) (*Index, error) {
	if mode == engine.OpenMMap {
		m, err := mmapio.Open(path)
		if err != nil {
			return nil, err
		}
		s, err := open(binio.NewSource(m.Data()))
		if err != nil {
			m.Close()
			return nil, err
		}
		s.mapping = m
		return s, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return validated(open(binio.NewSource(data)))
}

// open dispatches on the leading magic bytes: a container loads as
// itself, anything else goes to the engine registry. The engines'
// pending checks stay pending; OpenFile's mode says when they run.
func open(src *binio.Source) (*Index, error) {
	magic, err := engine.PeekMagic(src)
	if err != nil {
		return nil, err
	}
	if magic == shardMagic {
		return loadDeferred(src)
	}
	e, err := engine.LoadAnyDeferred(src)
	if err != nil {
		return nil, err
	}
	return adopt(e)
}

// adopt serves an engine loaded from its own file as the degenerate
// sharded index — one shard, global id == engine id, empty update
// buffers — so it takes inserts, deletes, compaction and SaveFile
// (which writes a container) like any other. Compactions rebuild with
// what the file persists of its build configuration: a GPH index's
// resolved options, a τ-bounded baseline's threshold; everything else
// takes the engine's defaults. It assembles the state before the
// index is visible to anyone, which is why it is a designated
// snapshot writer.
func adopt(e engine.Engine) (*Index, error) {
	var opts core.Options
	if ix, ok := e.(*core.Index); ok {
		opts = ix.Options()
	} else if reg, _ := engine.Lookup(e.Name()); reg.TauBounded {
		opts.MaxTau = e.MaxTau()
	}
	s, err := NewEngine(e.Name(), 1, opts)
	if err != nil {
		return nil, err
	}
	n := e.Len()
	sh := &state{built: e, builtIDs: make([]int32, n), dead: map[int32]bool{}}
	for id := int32(0); int(id) < n; id++ {
		sh.builtIDs[id] = id
		s.owner[id] = 0
	}
	s.dims.Store(int32(e.Dims()))
	s.nextID = int32(n)
	s.live.Store(int64(n))
	s.shards[0].Store(sh)
	return s, nil
}
