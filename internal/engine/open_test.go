// Open-path conformance: every registered engine must serve byte-equal
// results from a memory-mapped open and a heap open of the same file,
// report the same exact SizeBytes either way, fail cleanly (never
// fault) on truncated or corrupted files, and turn searches racing
// Close into engine.ErrIndexClosed instead of unmapped-page reads.
package engine_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"gph/internal/engine"
	"gph/internal/engine/enginetest"
)

// saveEngineFile builds the named engine over the conformance fixture
// and writes its index to a file under t.TempDir().
func saveEngineFile(t *testing.T, name string) string {
	t.Helper()
	data, _, _ := confData(t)
	e := confBuild(t, name, data)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatalf("saving %s: %v", name, err)
	}
	path := filepath.Join(t.TempDir(), name+".idx")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenDifferential is the mmap half of the conformance contract:
// for every registered engine, an index opened over a file mapping
// answers every query identically to the same file loaded onto the
// heap, and accounts the same exact SizeBytes for its borrowed arenas.
func TestOpenDifferential(t *testing.T) {
	_, queries, _ := confData(t)
	taus := []int{0, 2, 5, 10, confDims / 2}
	for _, info := range engine.Infos() {
		t.Run(info.Name, func(t *testing.T) {
			path := saveEngineFile(t, info.Name)
			heap, err := engine.Open(path, engine.OpenHeap)
			if err != nil {
				t.Fatalf("heap open: %v", err)
			}
			defer heap.Close()
			mapped, err := engine.Open(path, engine.OpenMMap)
			if err != nil {
				t.Fatalf("mmap open: %v", err)
			}
			defer mapped.Close()

			if got, want := mapped.SizeBytes(), heap.SizeBytes(); got != want {
				t.Errorf("SizeBytes: mmap %d != heap %d (borrowed arenas must account exactly)", got, want)
			}
			if mapped.Dims() != heap.Dims() || mapped.Len() != heap.Len() {
				t.Fatalf("metadata: mmap %d×%d != heap %d×%d",
					mapped.Len(), mapped.Dims(), heap.Len(), heap.Dims())
			}
			if info.Name == "gph" {
				// The mapped index's own route: posting arenas read through
				// the mapping, not the row arena alone.
				enginetest.OnIndex(t, mapped, queries[0], 0)
				enginetest.OnIndex(t, mapped, queries[0], 1)
			}
			maxTau := mapped.MaxTau()
			for _, tau := range taus {
				if maxTau > 0 && tau > maxTau {
					continue
				}
				for qi, q := range queries {
					want, err := heap.Search(q, tau)
					if err != nil {
						t.Fatalf("heap search(q%d, tau=%d): %v", qi, tau, err)
					}
					got, err := mapped.Search(q, tau)
					if err != nil {
						t.Fatalf("mmap search(q%d, tau=%d): %v", qi, tau, err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("q%d tau=%d: mmap results %v != heap %v", qi, tau, got, want)
					}
				}
			}
			// kNN goes through a different collection path; one spot check.
			wantNN, err := heap.SearchKNN(queries[0], 5)
			if err != nil {
				t.Fatalf("heap kNN: %v", err)
			}
			gotNN, err := mapped.SearchKNN(queries[0], 5)
			if err != nil {
				t.Fatalf("mmap kNN: %v", err)
			}
			if !slices.Equal(gotNN, wantNN) {
				t.Fatalf("kNN: mmap %v != heap %v", gotNN, wantNN)
			}
		})
	}
}

// TestOpenTruncated truncates every engine's index file at a spread of
// lengths; a mapped open must fail at Open or at the first search with
// a descriptive error — never a panic or fault. (Truncation is the
// canonical mapped-file hazard: a read past EOF in a real mapping is
// SIGBUS, so every span must be bounds-checked before it is touched.)
func TestOpenTruncated(t *testing.T) {
	for _, info := range engine.Infos() {
		t.Run(info.Name, func(t *testing.T) {
			path := saveEngineFile(t, info.Name)
			full, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			_, queries, _ := confData(t)
			for _, keep := range []int{0, 4, 8, 9, len(full) / 4, len(full) / 2, len(full) - 1} {
				cut := filepath.Join(t.TempDir(), "cut.idx")
				if err := os.WriteFile(cut, full[:keep], 0o644); err != nil {
					t.Fatal(err)
				}
				e, err := engine.Open(cut, engine.OpenMMap)
				if err != nil {
					continue // failed loudly at open: the common case
				}
				// Deferred-validation formats may only notice at first query.
				if _, err := e.Search(queries[0], 2); err == nil {
					t.Errorf("truncated to %d/%d bytes: open and search both succeeded", keep, len(full))
				}
				e.Close()
			}
		})
	}
}

// TestOpenCorrupted flips one byte at offsets spread through every
// engine's file. The contract is clean failure: open or search may
// reject the file (most flips hit a checked structure), and a flip in
// unchecked vector payload may legitimately change results — but
// nothing may panic or fault.
func TestOpenCorrupted(t *testing.T) {
	for _, info := range engine.Infos() {
		t.Run(info.Name, func(t *testing.T) {
			path := saveEngineFile(t, info.Name)
			full, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			_, queries, _ := confData(t)
			for i := 0; i < 16; i++ {
				off := (len(full) - 1) * i / 15
				bad := slices.Clone(full)
				bad[off] ^= 0x55
				corrupt := filepath.Join(t.TempDir(), "bad.idx")
				if err := os.WriteFile(corrupt, bad, 0o644); err != nil {
					t.Fatal(err)
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("flip at offset %d: panic: %v", off, r)
						}
					}()
					e, err := engine.Open(corrupt, engine.OpenMMap)
					if err != nil {
						return // rejected at open
					}
					defer e.Close()
					_, _ = e.Search(queries[0], 3) // error or changed results: both clean
				}()
			}
		})
	}
}

// TestSearchRacesClose closes a mapped engine while searches are in
// flight on several goroutines. Every search must either complete
// normally (it acquired the mapping before Close) or fail with
// engine.ErrIndexClosed; the mapping must never be read after release
// (the race detector and the read-only mapping both police that).
func TestSearchRacesClose(t *testing.T) {
	for _, info := range engine.Infos() {
		t.Run(info.Name, func(t *testing.T) {
			path := saveEngineFile(t, info.Name)
			_, queries, _ := confData(t)
			e, err := engine.Open(path, engine.OpenMMap)
			if err != nil {
				t.Fatal(err)
			}
			// Warm: run the deferred validation before racing so a
			// mid-validation Close is exercised separately below.
			if _, err := e.Search(queries[0], 2); err != nil {
				t.Fatalf("warm search: %v", err)
			}
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					<-start
					for i := 0; i < 200; i++ {
						q := queries[(g+i)%len(queries)]
						if _, err := e.Search(q, 4); err != nil && !errors.Is(err, engine.ErrIndexClosed) {
							t.Errorf("goroutine %d: unexpected error: %v", g, err)
							return
						}
					}
				}(g)
			}
			close(start)
			e.Close()
			wg.Wait()
			if _, err := e.Search(queries[0], 2); !errors.Is(err, engine.ErrIndexClosed) {
				t.Fatalf("search after close: got %v, want ErrIndexClosed", err)
			}
			if e.Close() != nil {
				t.Fatal("second Close errored")
			}
		})
	}
}

// TestColdCloseRace is TestSearchRacesClose without the warm-up: the
// racing searches contend with the first query's deferred validation
// pass as well as with Close.
func TestColdCloseRace(t *testing.T) {
	path := saveEngineFile(t, "gph")
	_, queries, _ := confData(t)
	e, err := engine.Open(path, engine.OpenMMap)
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				if _, err := e.Search(queries[i%len(queries)], 4); err != nil && !errors.Is(err, engine.ErrIndexClosed) {
					t.Errorf("goroutine %d: unexpected error: %v", g, err)
					return
				}
			}
		}(g)
	}
	close(start)
	e.Close()
	wg.Wait()
}

// TestMappingRefsDrain is the runtime counterpart of gphlint's
// leakcheck analyzer: it races every bracketed entry point — Search,
// SearchKNN, streaming iteration with early stop, Vector's panic path
// — against Close, then asserts the mapping's acquire count returns
// to zero once all readers join. A non-zero count is a Release missed
// on some path (most likely an error or early-return path that the
// static pairing analysis also guards).
func TestMappingRefsDrain(t *testing.T) {
	for _, info := range engine.Infos() {
		t.Run(info.Name, func(t *testing.T) {
			path := saveEngineFile(t, info.Name)
			_, queries, _ := confData(t)
			e, err := engine.Open(path, engine.OpenMMap)
			if err != nil {
				t.Fatal(err)
			}
			m := engine.MappingOf(e)
			if m == nil {
				t.Fatal("mmap open has no backing mapping")
			}
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					<-start
					for i := 0; i < 100; i++ {
						q := queries[(g+i)%len(queries)]
						switch g % 4 {
						case 0:
							if _, err := e.Search(q, 4); err != nil && !errors.Is(err, engine.ErrIndexClosed) {
								t.Errorf("Search: %v", err)
								return
							}
						case 1:
							if _, err := e.SearchKNN(q, 3); err != nil && !errors.Is(err, engine.ErrIndexClosed) {
								t.Errorf("SearchKNN: %v", err)
								return
							}
						case 2:
							s, ok := e.(engine.Streamer)
							if !ok {
								return
							}
							n := 0
							for _, err := range s.SearchIter(q, 4) {
								if err != nil && !errors.Is(err, engine.ErrIndexClosed) {
									t.Errorf("SearchIter: %v", err)
									return
								}
								if n++; n >= 2 {
									break // early stop must still release
								}
							}
						case 3:
							func() {
								defer func() { recover() }() // post-Close Vector panics; that path must not leak
								_ = e.Vector(int32(i % e.Len()))
							}()
						}
					}
				}(g)
			}
			close(start)
			e.Close()
			wg.Wait()
			if refs := m.Refs(); refs != 0 {
				t.Fatalf("mapping holds %d refs after all searches joined: some path acquired without releasing", refs)
			}
		})
	}
}

// TestOpenModeReporting pins the Mapped/MappedBytes surface the server
// exposes in /stats and /metrics.
func TestOpenModeReporting(t *testing.T) {
	path := saveEngineFile(t, "gph")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := engine.Open(path, engine.OpenHeap)
	if err != nil {
		t.Fatal(err)
	}
	defer heap.Close()
	if heap.Mapped() || heap.MappedBytes() != 0 {
		t.Errorf("heap open reports Mapped=%v MappedBytes=%d", heap.Mapped(), heap.MappedBytes())
	}
	mapped, err := engine.Open(path, engine.OpenMMap)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if mapped.MappedBytes() != fi.Size() {
		t.Errorf("MappedBytes = %d, file is %d", mapped.MappedBytes(), fi.Size())
	}
	if mapped.Mapped() {
		// Real mapping (not the fallback): Vector must return an owned
		// clone that survives Close.
		v := mapped.Vector(3)
		want := heap.Vector(3)
		if v.Dims() != want.Dims() || v.Hamming(want) != 0 {
			t.Error("mapped Vector(3) differs from heap Vector(3)")
		}
	}
}
