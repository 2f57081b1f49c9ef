// Package mmapio provides read-only memory-mapped file access for the
// zero-copy index open path (DESIGN.md §14). A Mapping exposes a file's
// bytes as one []byte backed either by the kernel's page cache (mmap)
// or, where mapping is unavailable, by an owned heap buffer read once
// at open — callers decode against the same slice either way.
//
// Mapped bytes are strictly read-only: the mapping is established with
// PROT_READ, so any write through a borrowed slice faults. Decoders
// that borrow from a Mapping (binio's borrow mode, the frozen arena
// loaders) must therefore never mutate what they return — the
// persistence stack validates on open instead of patching in place.
//
// Lifetime is reference-counted. Searches serving from borrowed arenas
// bracket their work with Acquire/Release; Close marks the mapping
// closed (further Acquires fail, so new searches get a clean error
// instead of a SIGBUS) and the underlying pages unmap only once the
// last in-flight reference drains. This is the mapping half of the
// snapshot/epoch discipline the shard layer already follows: a query
// that acquired the mapping owns a consistent view for its whole
// lifetime, no matter when Close ran.
package mmapio

import (
	"fmt"
	"os"
	"sync"
)

// Mapping is a read-only view of one file's bytes, either memory-mapped
// or (fallback) heap-resident. The zero value is unusable; obtain one
// from Open or OpenHeap.
type Mapping struct {
	data   []byte
	mapped bool // true: data is an mmap'd region; false: owned heap copy
	path   string

	mu     sync.Mutex
	refs   int
	closed bool
	done   bool // pages released (munmap ran or heap buffer dropped)
}

// Open maps the file at path read-only. On platforms without mmap
// support (or if the mapping syscall fails), it falls back to reading
// the whole file into an owned heap buffer — callers observe the same
// []byte contract, only Mapped reports the difference. Empty files
// yield a valid zero-length Mapping.
func Open(path string) (*Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mmapio: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("mmapio: %w", err)
	}
	size := fi.Size()
	if size == 0 {
		return &Mapping{path: path}, nil
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("mmapio: %s is %d bytes, larger than the address space", path, size)
	}
	if data, err := mmapFile(f, int(size)); err == nil {
		return &Mapping{data: data, mapped: true, path: path}, nil
	}
	return openHeap(path)
}

// OpenHeap reads the file at path into an owned heap buffer, bypassing
// mmap entirely. It is the explicit fallback path — benchmarks use it
// to compare the two open strategies on equal footing, and callers that
// know they will touch every byte immediately can prefer it.
func OpenHeap(path string) (*Mapping, error) { return openHeap(path) }

func openHeap(path string) (*Mapping, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("mmapio: %w", err)
	}
	return &Mapping{data: data, path: path}, nil
}

// Data returns the file's bytes. The slice aliases the mapping: it is
// read-only (writes fault when mapped) and must not be used after the
// last Release following Close.
func (m *Mapping) Data() []byte { return m.data }

// Len returns the mapped length in bytes.
func (m *Mapping) Len() int { return len(m.data) }

// Path returns the file path the mapping was opened from.
func (m *Mapping) Path() string { return m.path }

// Mapped reports whether the bytes are served by a real memory mapping
// (false: the heap fallback owns a copy).
func (m *Mapping) Mapped() bool { return m.mapped }

// Refs returns the number of in-flight Acquire brackets. It exists for
// leak tests: after every reader joins, a non-zero count is a missed
// Release on some path.
func (m *Mapping) Refs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.refs
}

// Acquire registers one in-flight reader and reports whether the
// mapping is still open. A false return means Close has run: the
// caller must not touch Data and should fail its operation cleanly.
// Every successful Acquire must be paired with exactly one Release.
//
//gph:hotpath
func (m *Mapping) Acquire() bool {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false
	}
	m.refs++
	m.mu.Unlock()
	return true
}

// Release drops one in-flight reference. If Close already ran and this
// was the last reference, the pages are unmapped now.
//
//gph:hotpath
func (m *Mapping) Release() {
	m.mu.Lock()
	m.refs--
	if m.refs < 0 {
		m.mu.Unlock()
		panic("mmapio: Release without matching Acquire")
	}
	release := m.closed && m.refs == 0 && !m.done
	if release {
		m.done = true
	}
	m.mu.Unlock()
	if release {
		m.unmap()
	}
}

// Close marks the mapping closed: subsequent Acquires fail, and the
// pages are released once the last in-flight reference drains (or
// immediately when none is held). Idempotent; never blocks on readers.
func (m *Mapping) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	release := m.refs == 0 && !m.done
	if release {
		m.done = true
	}
	m.mu.Unlock()
	if release {
		m.unmap()
	}
	return nil
}

// unmap releases the pages; the caller has already claimed done.
func (m *Mapping) unmap() {
	if m.mapped {
		munmapBytes(m.data)
	}
	m.data = nil
}

// Advice names a page-access pattern for Advise.
type Advice int

const (
	// AdviseNormal resets to the kernel's default readahead policy.
	AdviseNormal Advice = iota
	// AdviseRandom disables readahead — right for hash-probe access
	// (frozen-index bucket lookups land on scattered pages).
	AdviseRandom
	// AdviseSequential aggressively reads ahead — right for full scans
	// over the packed codes arena.
	AdviseSequential
	// AdviseWillNeed asks the kernel to start faulting the range in now.
	AdviseWillNeed
)

// Advise hints the kernel about the expected access pattern. It is
// advisory only: unsupported platforms and the heap fallback ignore it
// and return nil.
func (m *Mapping) Advise(a Advice) error {
	if !m.mapped || len(m.data) == 0 {
		return nil
	}
	return madviseBytes(m.data, a)
}
