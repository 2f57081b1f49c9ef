// Open-path conformance: every registered engine must serve byte-equal
// results from a memory-mapped open and a heap open of the same file,
// report the same exact SizeBytes either way, fail cleanly (never
// fault) on truncated or corrupted files — a heap open and a reader
// load at open, a mapped open by its first search — and turn searches
// racing Close into engine.ErrIndexClosed instead of unmapped-page
// reads.
package engine_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"gph/internal/dataset"
	"gph/internal/engine"
	"gph/internal/engine/enginetest"
)

// saveEngineFile builds the named engine over the conformance fixture
// and writes its index to a file under t.TempDir().
func saveEngineFile(t *testing.T, name string) string {
	t.Helper()
	data, _, _ := confData(t)
	return writeEngineFile(t, confBuild(t, name, data))
}

// writeEngineFile writes e's index to a file under t.TempDir().
func writeEngineFile(t *testing.T, e engine.Engine) string {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatalf("saving %s: %v", e.Name(), err)
	}
	path := filepath.Join(t.TempDir(), e.Name()+".idx")
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

// TestOpenCorrupted is where corruption surfaces, per opener and mode:
// one byte flipped at offsets spread through every engine's file, and
// the file cut short at a few lengths, each damaged copy taken through
// Open in both modes and through LoadAny from a plain reader. Nothing
// may panic or fault. A heap open and a reader load have read every
// byte and reject at open exactly the files a mapped open rejects by its
// first search (at Open: the structural tier; at the search: what it
// leaves for then, GPH's content tier). A flip nobody rejects sits in
// unchecked vector payload and may legitimately change results — the
// same results in both modes.
func TestOpenCorrupted(t *testing.T) {
	_, queries, _ := confData(t)
	for _, info := range engine.Infos() {
		t.Run(info.Name, func(t *testing.T) {
			full, err := os.ReadFile(saveEngineFile(t, info.Name))
			if err != nil {
				t.Fatal(err)
			}
			// Sixteen flips through every engine's file; GPH, the engine
			// whose loader leaves work for later, gets a finer sweep on top.
			damaged := map[string][]byte{}
			flip := func(count int) {
				for i := 0; i < count; i++ {
					off := (len(full) - 1) * i / (count - 1)
					bad := slices.Clone(full)
					bad[off] ^= 0x55
					damaged[fmt.Sprintf("flip at offset %d", off)] = bad
				}
			}
			flip(16)
			if info.Name == "gph" {
				flip(64)
			}
			for _, keep := range []int{0, 4, 8, 9, len(full) / 4, len(full) / 2, len(full) - 1} {
				damaged[fmt.Sprintf("cut to %d of %d bytes", keep, len(full))] = full[:keep]
			}
			path := filepath.Join(t.TempDir(), "bad.idx")
			atOpen, atSearch := 0, 0
			for what, bad := range damaged {
				if err := os.WriteFile(path, bad, 0o644); err != nil {
					t.Fatal(err)
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s: panic: %v", what, r)
						}
					}()
					heap, heapErr := engine.Open(path, engine.OpenHeap)
					if heapErr != nil {
						atOpen++
					}
					// LSH redraws its tables on every load, 0.2 s each: it
					// skips the third.
					readerErr := heapErr
					if info.Name != "lsh" {
						_, readerErr = engine.LoadAny(bytes.NewReader(bad))
					}
					if (heapErr != nil) != (readerErr != nil) {
						t.Errorf("%s: heap open says %v, a reader load %v", what, heapErr, readerErr)
					}
					mapped, mapErr := engine.Open(path, engine.OpenMMap)
					if mapErr == nil {
						defer mapped.Close()
						if _, mapErr = mapped.Search(queries[0], 3); mapErr != nil {
							atSearch++
						}
					}
					if (heapErr != nil) != (mapErr != nil) {
						t.Errorf("%s: heap open says %v, a mapped open and its first search %v", what, heapErr, mapErr)
					}
					if heapErr != nil || mapErr != nil {
						return
					}
					for _, q := range queries[:4] {
						for _, tau := range []int{0, 1, 3} {
							want, werr := heap.Search(q, tau)
							got, gerr := mapped.Search(q, tau)
							if (werr != nil) != (gerr != nil) || !slices.Equal(got, want) {
								t.Errorf("%s, tau=%d: heap answers %v (%v), mmap %v (%v)", what, tau, want, werr, got, gerr)
							}
						}
					}
				}()
			}
			t.Logf("%d damaged files: %d rejected by a heap open, %d by a mapped open's first search", len(damaged), atOpen, atSearch)
			if info.Name == "gph" && atSearch == 0 {
				t.Error("no damaged gph file got past a mapped Open to fail its first search: the sweep misses the content tier")
			}
		})
	}
}

// TestVectorTailCheck: a row's bits past the dimension are what every
// engine's loader refuses, through the one tail check of its rows
// (verify.Codes.CheckTails). In a 70-dimension file of each registered
// engine (two words a row), bit 70 of row 37 set is rejected by a heap
// open, the vector named, and by a mapped open or, where the loader
// leaves its content tier to the first query (GPH), by that search and
// every search after it. Bit 69 is inside the dimension: flipping it is
// a different row 37, accepted, and no other row's distances move.
func TestVectorTailCheck(t *testing.T) {
	const dims, row = 70, 37
	ds := dataset.Synthetic(400, dims, 0.3, confSeed)
	want := fmt.Sprintf("vector %d corrupt: bitvec: bits set beyond dimension %d (tail word ", row, dims)
	for _, name := range engine.Names() {
		t.Run(name, func(t *testing.T) {
			built, err := engine.Build(name, ds.Vectors, engine.BuildOptions{NumPartitions: 3, MaxTau: 16, Seed: confSeed})
			if err != nil {
				t.Fatal(err)
			}
			var saved bytes.Buffer
			if err := built.Save(&saved); err != nil {
				t.Fatal(err)
			}
			var arena []byte
			for id := range built.Len() {
				for _, w := range built.Vector(int32(id)).Words() {
					arena = binary.LittleEndian.AppendUint64(arena, w)
				}
			}
			off := bytes.Index(saved.Bytes(), arena)
			if off < 0 {
				t.Fatal("the saved file does not hold the rows' words in order")
			}
			flipped := func(bit int) string {
				bad := bytes.Clone(saved.Bytes())
				bad[off+8*(2*row+1)+(bit-64)/8] ^= 1 << ((bit - 64) % 8) // the row's second word holds dims 64–127
				path := filepath.Join(t.TempDir(), fmt.Sprintf("bit%d", bit))
				if err := os.WriteFile(path, bad, 0o644); err != nil {
					t.Fatal(err)
				}
				return path
			}

			path := flipped(70)
			if _, err := engine.Open(path, engine.OpenHeap); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("heap open of bit 70 set: %v, want %q…", err, want)
			}
			mapped, err := engine.Open(path, engine.OpenMMap)
			if err != nil && !strings.Contains(err.Error(), want) {
				t.Fatalf("mapped open of bit 70 set: %v, want %q…", err, want)
			}
			if err == nil {
				defer mapped.Close()
				var first error
				for i, q := range ds.Vectors[:4] {
					_, err := mapped.Search(q, 2)
					if err == nil || !strings.Contains(err.Error(), want) || (i > 0 && err.Error() != first.Error()) {
						t.Fatalf("mapped search %d of bit 70 set: %v, first search said %v", i, err, first)
					}
					first = err
				}
			}

			heap, err := engine.Open(flipped(69), engine.OpenHeap)
			if err != nil {
				t.Fatalf("heap open of bit 69 flipped: %v", err)
			}
			defer heap.Close()
			for _, q := range ds.Vectors[:8] {
				for id := range heap.Len() {
					got, was := q.Hamming(heap.Vector(int32(id))), q.Hamming(ds.Vectors[id])
					if moved := got != was; moved != (id == row) || (moved && got-was != 1 && was-got != 1) {
						t.Fatalf("row %d: distance %d, %d before bit 69 of row %d flipped", id, got, was, row)
					}
				}
			}
		})
	}
}

// TestFirstQueriesRace: eight goroutines' first searches on one freshly
// opened index, at thresholds that run the index. On a mapped open they
// race the content tier (one runs it over the arrays every probe reads,
// seven wait); on a heap open, validated before Open returned, they race
// their scratch. All eight answer as the oracle
// does. Run under -race.
func TestFirstQueriesRace(t *testing.T) {
	path := saveEngineFile(t, "gph")
	_, queries, oracle := confData(t)
	for _, mode := range []engine.OpenMode{engine.OpenHeap, engine.OpenMMap} {
		t.Run(mode.String(), func(t *testing.T) {
			e, err := engine.Open(path, mode)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					q, tau := queries[g%len(queries)], g%2
					want, err := oracle.Search(q, tau)
					if err != nil {
						t.Error(err)
						return
					}
					<-start
					got, st, err := e.SearchStats(q, tau)
					if err != nil || !slices.Equal(got, want) {
						t.Errorf("goroutine %d, tau=%d: got %v (%v), the oracle has %v", g, tau, got, err, want)
					} else if st.Scanned {
						t.Errorf("goroutine %d, tau=%d: answered by the scan, which probes nothing", g, tau)
					}
				}(g)
			}
			close(start)
			wg.Wait()
		})
	}
}

// TestHeapOpenReadsOnce pins the copy: a heap open, and a load from a
// reader that can say its size (a file, a bytes.Reader), allocates the
// file's bytes once — one buffer the arenas alias — plus the per-vector
// views its validation carves (32 B each). An io.ReadAll's doublings, or
// a second copy of the arenas, does not fit under 1.1 × the file + 64 B
// a vector, on a file of more than 36 B a vector: 256-d rows are 32.
func TestHeapOpenReadsOnce(t *testing.T) {
	ds := dataset.UQVideoLike(3000, confSeed)
	built, err := engine.Build("gph", ds.Vectors, engine.BuildOptions{Seed: confSeed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built.Save(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gph.idx")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, n := int64(buf.Len()), int64(len(ds.Vectors))
	for _, c := range []struct {
		name string
		load func() (engine.Engine, error)
	}{
		{"Open(heap)", func() (engine.Engine, error) { return engine.Open(path, engine.OpenHeap) }},
		{"LoadAny(*os.File)", func() (engine.Engine, error) { return engine.LoadAny(f) }},
		{"LoadAny(*bytes.Reader)", func() (engine.Engine, error) { return engine.LoadAny(bytes.NewReader(buf.Bytes())) }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e, err := c.load()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if e.Len() != len(ds.Vectors) {
			t.Fatalf("%s: loaded %d vectors of %d", c.name, e.Len(), len(ds.Vectors))
		}
		got := int64(after.TotalAlloc - before.TotalAlloc)
		if limit := size*11/10 + 64*n; got > limit || 2*size+32*n <= limit {
			t.Errorf("%s of a %d-byte file over %d vectors allocated %d bytes; limit %d, two copies would be %d",
				c.name, size, n, got, limit, 2*size+32*n)
		}
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

// TestMappingRefsDrain races every bracketed entry point of a mapped
// engine — Search, SearchKNN, streaming iteration with early stop,
// Vector's panic path — against Close, then asserts the mapping's
// acquire count returns to zero once all readers join. A non-zero count
// is a Release missed on some path, most likely an error or early
// return. FuzzShardLifecycle holds the sharded index to the same count
// after every step.
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
