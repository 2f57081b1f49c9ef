package engine

import (
	"errors"
	"fmt"
	"io"
	"iter"
	"os"

	"gph/internal/binio"
	"gph/internal/bitvec"
	"gph/internal/mmapio"
)

// ErrIndexClosed reports a search against an opened engine whose
// backing file mapping has been closed; match with errors.Is. It is a
// clean failure by construction: Close prevents new searches from
// acquiring the mapping instead of letting them fault on unmapped
// pages.
var ErrIndexClosed = errors.New("engine: index closed")

// OpenMode selects how Open brings an index file into memory.
type OpenMode int

const (
	// OpenHeap reads the file into one owned heap buffer and decodes it
	// in place, validated in full before Open returns; open time and RSS
	// scale with index size.
	OpenHeap OpenMode = iota
	// OpenMMap maps the file read-only and serves the index's arenas
	// as borrowed slices over the mapping: open is O(1) in index size,
	// the kernel pages data in on demand and evicts under pressure, and
	// N processes opening one file share a single physical copy. On
	// platforms without mmap this degrades to a heap read with the same
	// lifetime contract (Close fails subsequent searches cleanly).
	OpenMMap
)

// String returns the mode's flag spelling ("heap" / "mmap").
func (m OpenMode) String() string {
	if m == OpenMMap {
		return "mmap"
	}
	return "heap"
}

// OpenedEngine is an Engine opened from a file, carrying the backing
// storage's lifetime. Close releases the mapping once in-flight
// searches drain; searches after Close fail with ErrIndexClosed.
// Mapped and MappedBytes feed the server's open-mode reporting.
type OpenedEngine interface {
	Engine
	io.Closer
	// Mapped reports whether the engine serves from a live file
	// mapping (false for heap opens and the no-mmap fallback).
	Mapped() bool
	// MappedBytes returns the size of the backing file mapping in
	// bytes, 0 when none.
	MappedBytes() int64
}

// Open loads the engine index at path in the given mode, dispatching
// on the file's magic like LoadAny. Both modes run the one decode, in
// place over the file's bytes — a read-only mapping, or one heap buffer
// the file was read into — so the index's bulk arenas alias those bytes.
// Structural validation (magics, headers, arena and array lengths —
// everything needed to make later accesses in-bounds) runs before Open
// returns in both; truncated or structurally corrupt files fail here.
// The arena-reading content checks are the same function in both modes
// and differ in when: a heap open has paid to read every byte and runs
// them before it returns, so content corruption fails Open; a mapped
// open leaves them to the first query, where they double as page
// warm-up and open time stays flat in index size, so content corruption
// fails the first search with a sticky validation error. Neither ever
// faults.
//
// The guard forwards the Engine contract plus streaming, not
// GrowSearcher: the shard layer hands the raw engines inside its states
// only to calls under its own mapping bracket, and a packed arena read
// outside any Acquire/Release bracket would race Close.
// SearchKNN still reaches the inner engine's own grower.
func Open(path string, mode OpenMode) (OpenedEngine, error) {
	if mode == OpenMMap {
		m, err := mmapio.Open(path)
		if err != nil {
			return nil, err
		}
		// The decoder touches scattered header pages (section scalars
		// and array length prefixes) and skips the arenas between them;
		// under the default readahead policy each of those faults drags
		// in a window of arena pages the open never reads. Advise a
		// random access pattern for the parse, then restore normal so
		// the first queries' sequential arena walks get readahead back.
		// Both calls are best-effort: a platform that cannot advise
		// still opens correctly, just colder.
		_ = m.Advise(mmapio.AdviseRandom)
		e, err := LoadAnyDeferred(binio.NewSource(m.Data()))
		if err != nil {
			m.Close()
			return nil, err
		}
		_ = m.Advise(mmapio.AdviseNormal)
		return wrapOpened(e, m), nil
	}
	// One read into one buffer of the file's size, decoded where it
	// lies: the arenas alias the buffer as they would a mapping.
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	e, err := LoadAny(binio.NewSource(data))
	if err != nil {
		return nil, err
	}
	return wrapOpened(e, nil), nil
}

// wrapOpened picks the guard for e: the streaming one when e streams
// natively, the base one otherwise (engine.Stream replays its Search).
func wrapOpened(e Engine, m *mmapio.Mapping) OpenedEngine {
	base := opened{e: e, m: m}
	if _, ok := e.(Streamer); ok {
		return &openedStream{base}
	}
	return &base
}

// opened is the base guard: it forwards the Engine contract, holding
// the mapping acquired for the duration of every call that reads index
// storage. With m == nil (heap open) the guard is pure forwarding and
// Close is a no-op, matching Load's previous behaviour.
type opened struct {
	e Engine
	m *mmapio.Mapping
}

// acquire opens a read section on the backing mapping; every nil
// error must be paired with release.
func (o *opened) acquire() error {
	if o.m != nil && !o.m.Acquire() {
		return ErrIndexClosed
	}
	return nil
}

// release exits the read section acquire opened.
func (o *opened) release() {
	if o.m != nil {
		o.m.Release()
	}
}

// Close releases the backing mapping once in-flight searches drain.
// Heap-opened engines have nothing to release and remain usable.
func (o *opened) Close() error {
	if o.m == nil {
		return nil
	}
	return o.m.Close()
}

// Mapped implements OpenedEngine.
func (o *opened) Mapped() bool { return o.m != nil && o.m.Mapped() }

// MappedBytes implements OpenedEngine.
func (o *opened) MappedBytes() int64 {
	if o.m == nil {
		return 0
	}
	return int64(o.m.Len())
}

// The metadata accessors read owned header fields, never mapped
// arenas, so they stay valid (and unbracketed) after Close.

func (o *opened) Name() string     { return o.e.Name() }
func (o *opened) Exact() bool      { return o.e.Exact() }
func (o *opened) MaxTau() int      { return o.e.MaxTau() }
func (o *opened) Dims() int        { return o.e.Dims() }
func (o *opened) Len() int         { return o.e.Len() }
func (o *opened) SizeBytes() int64 { return o.e.SizeBytes() }

// Vector returns the indexed vector with id ∈ [0, Len()). Over a
// mapping it returns an owned clone — the only Engine method whose
// result outlives its call, so handing out a view would let the caller
// read unmapped pages after Close. Panics with ErrIndexClosed after
// Close (the contract has no error return; a loud panic beats a
// SIGSEGV with no cause attached).
func (o *opened) Vector(id int32) bitvec.Vector {
	if o.m == nil {
		return o.e.Vector(id)
	}
	if !o.m.Acquire() {
		panic(fmt.Errorf("engine: Vector(%d): %w", id, ErrIndexClosed))
	}
	defer o.m.Release()
	return o.e.Vector(id).Clone()
}

func (o *opened) Search(q bitvec.Vector, tau int) ([]int32, error) {
	if err := o.acquire(); err != nil {
		return nil, err
	}
	defer o.release()
	return o.e.Search(q, tau)
}

func (o *opened) SearchStats(q bitvec.Vector, tau int) ([]int32, *Stats, error) {
	if err := o.acquire(); err != nil {
		return nil, nil, err
	}
	defer o.release()
	return o.e.SearchStats(q, tau)
}

func (o *opened) SearchKNN(q bitvec.Vector, k int) ([]Neighbor, error) {
	if err := o.acquire(); err != nil {
		return nil, err
	}
	defer o.release()
	return o.e.SearchKNN(q, k)
}

func (o *opened) SearchBatch(queries []bitvec.Vector, tau int, parallelism int) ([][]int32, error) {
	if err := o.acquire(); err != nil {
		return nil, err
	}
	defer o.release()
	return o.e.SearchBatch(queries, tau, parallelism)
}

func (o *opened) Save(w io.Writer) error {
	if err := o.acquire(); err != nil {
		return err
	}
	defer o.release()
	return o.e.Save(w)
}

// openedStream adds bracketed streaming: the mapping is held for the
// whole iteration, released when the stream ends or the consumer stops.
type openedStream struct{ opened }

func (o *openedStream) SearchIter(q bitvec.Vector, tau int) iter.Seq2[Neighbor, error] {
	return func(yield func(Neighbor, error) bool) {
		if err := o.acquire(); err != nil {
			yield(Neighbor{}, err)
			return
		}
		defer o.release()
		o.e.(Streamer).SearchIter(q, tau)(yield)
	}
}
