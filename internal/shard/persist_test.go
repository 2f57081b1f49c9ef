package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"gph/internal/core"
	"gph/internal/dataset"
	"gph/internal/engine"
	"gph/internal/engine/enginetest"
)

// dirtyIndex builds a sharded index carrying every kind of state the
// container must persist: built shards, tombstones, and delta
// entries. Shard 0 holds at least twelve tombstones, more than one map
// group holds, so a Save that wrote them in map order instead of
// sorted would fail Load's ascending check on practically every run.
func dirtyIndex(t *testing.T) *Index {
	t.Helper()
	ds := dataset.UQVideoLike(500, 17)
	s, err := Build(ds.Vectors[:400], 3, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ds.Vectors[400:] {
		if _, err := s.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	built0 := s.shards[0].Load().builtIDs
	for _, id := range append([]int32{3, 77, 200, 410, 455}, built0[len(built0)-12:]...) {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestSaveLoadRoundTrip asserts the acceptance criterion: a loaded
// sharded container re-saves byte-identically, and the loaded index
// answers queries exactly as the original, through further updates
// and compaction.
func TestSaveLoadRoundTrip(t *testing.T) {
	s := dirtyIndex(t)
	var first bytes.Buffer
	if err := s.Save(&first); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := loaded.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("round trip not byte-identical: %d vs %d bytes", first.Len(), second.Len())
	}

	if loaded.Len() != s.Len() || loaded.Dims() != s.Dims() || loaded.NumShards() != s.NumShards() {
		t.Fatalf("shape mismatch: %d/%d/%d vs %d/%d/%d",
			loaded.Len(), loaded.Dims(), loaded.NumShards(), s.Len(), s.Dims(), s.NumShards())
	}
	queries := dataset.PerturbQueries(dataset.UQVideoLike(500, 17), 6, 4, 3)
	for _, q := range queries {
		want, err := s.Search(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Search(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(want, got) {
			t.Fatalf("loaded index answers differently: %v vs %v", want, got)
		}
	}

	// The loaded index stays updatable: compact, insert, and the id
	// counter continues where the original left off.
	if err := loaded.Compact(); err != nil {
		t.Fatal(err)
	}
	idA, err := s.Insert(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	idB, err := loaded.Insert(queries[0].Clone())
	if err != nil {
		t.Fatal(err)
	}
	if idA != idB {
		t.Fatalf("id counters diverged: %d vs %d", idA, idB)
	}

	// Compacted state round-trips too.
	if err := loaded.Compact(); err != nil {
		t.Fatal(err)
	}
	var third bytes.Buffer
	if err := loaded.Save(&third); err != nil {
		t.Fatal(err)
	}
	reloaded, err := Load(bytes.NewReader(third.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var fourth bytes.Buffer
	if err := reloaded.Save(&fourth); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(third.Bytes(), fourth.Bytes()) {
		t.Fatal("compacted round trip not byte-identical")
	}
}

// TestOptionsRoundTrip: the container must carry the full build
// configuration, so a Compact after Load rebuilds shards exactly as the
// original index would (a dropped field silently changes every post-load
// rebuild) — by construction, not by a hand list: every field of
// core.Options is set non-zero and round-tripped, and the fields that
// do not come back are exactly the ones Save documents as runtime-only.
// A new field with no decision fails here.
func TestOptionsRoundTrip(t *testing.T) {
	var opts core.Options
	enginetest.SetNonZero(t, &opts)
	s, err := New(2, opts) // the options are the container's, whatever the shards hold
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	runtimeOnly := []string{"Workload", "BuildParallelism", "WALPath", "AutoCompactDelta", "CacheBytes"}
	if lost := enginetest.FieldsThatDiffer(loaded.Options(), opts); !slices.Equal(lost, runtimeOnly) {
		t.Fatalf("options the container did not hand back:\n     %v\nwant %v\npersist a new field in writeOptions or declare it here and in Save's comment", lost, runtimeOnly)
	}
}

// disorderedFile is a container no writer produces, and what the
// loader's error says about it.
type disorderedFile struct {
	name, want string
	raw        []byte
}

// disorderedFiles saves a two-shard linscan index with three tombstones
// in shard 0 and one insert in a delta buffer, and returns its bytes and
// the files made from them that break the loader's id rules: ids out of
// order within a shard, and an id listed twice — in two shards' built
// ids, or a tombstoned id listed again as built or buffered.
func disorderedFiles(tb testing.TB) (raw []byte, files []disorderedFile) {
	s, err := BuildEngine("linscan", dataset.SIFTLike(60, 4).Vectors, 2, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	// Three tombstones in shard 0, none of them a shard's first id, and
	// one insert, buffered in a shard's delta.
	built0 := s.shards[0].Load().builtIDs
	for _, id := range built0[1:4] {
		if err := s.Delete(id); err != nil {
			tb.Fatal(err)
		}
	}
	inserted, err := s.Insert(dataset.SIFTLike(1, 5).Vectors[0])
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	raw = buf.Bytes()
	// arrayAt finds an id array in the file — its count, then its int32s,
	// little-endian — and returns the offset of its first id.
	arrayAt := func(ids []int32) int {
		enc := binary.LittleEndian.AppendUint64(nil, uint64(len(ids)))
		for _, id := range ids {
			enc = binary.LittleEndian.AppendUint32(enc, uint32(id))
		}
		at := bytes.Index(raw, enc)
		if at < 0 || bytes.Contains(raw[at+1:], enc) {
			tb.Fatalf("the %d-byte id array %v does not occur exactly once in the file", len(enc), ids)
		}
		return at + 8
	}
	// swapped exchanges the first two ids of an array; repeated writes
	// its first id over its second.
	swapped := func(at int) []byte {
		out := bytes.Clone(raw)
		copy(out[at:], raw[at+4:at+8])
		copy(out[at+4:], raw[at:at+4])
		return out
	}
	repeated := func(at int) []byte {
		out := bytes.Clone(raw)
		copy(out[at+4:], raw[at:at+4])
		return out
	}
	// The shard whose first id is the larger takes the other's first id
	// in its place: still ascending, and now in both.
	built1 := s.shards[1].Load().builtIDs
	lo, hi := arrayAt(built0), arrayAt(built1)
	if built0[0] > built1[0] {
		lo, hi = hi, lo
	}
	twice := bytes.Clone(raw)
	copy(twice[hi:hi+4], raw[lo:lo+4])
	dead := arrayAt(built0[1:4])
	// A tombstoned id listed again: built in shard 1 in place of the first
	// id there above it (still ascending), and as the delta's id.
	gone := binary.LittleEndian.AppendUint32(nil, uint32(built0[1]))
	j, _ := slices.BinarySearch(built1, built0[1])
	if j == len(built1) {
		tb.Fatalf("no id of shard 1 lies above tombstone %d", built0[1])
	}
	rebuilt := bytes.Clone(raw)
	copy(rebuilt[arrayAt(built1)+4*j:], gone)
	delta := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint64(nil, 1), uint32(inserted))
	at := bytes.Index(raw, delta)
	if at < 0 || bytes.Contains(raw[at+1:], delta) {
		tb.Fatalf("the delta of id %d does not occur exactly once in the file", inserted)
	}
	redelta := bytes.Clone(raw)
	copy(redelta[at+8:], gone)
	return raw, []disorderedFile{
		{"descending ids", "ids not strictly ascending", swapped(arrayAt(built0))},
		{"an id in two shards", "appears in two shards", twice},
		{"descending tombstones", "tombstones not strictly ascending", swapped(dead)},
		{"a tombstone twice", "tombstones not strictly ascending", repeated(dead)},
		{"a tombstoned id built in another shard", "appears in two shards", rebuilt},
		{"a tombstoned id in a delta buffer", "appears twice", redelta},
	}
}

// TestLoadRejectsDisorderedIDs: state.pos searches builtIDs, so the
// loader holds a file to what every writer produces — ids strictly
// ascending within a shard, and every id once across every shard's
// built ids and delta buffer, tombstoned or not. Tombstones are held to
// the same order, so a file whose re-save would differ from it does not
// load. Every open mode says so.
func TestLoadRejectsDisorderedIDs(t *testing.T) {
	_, files := disorderedFiles(t)
	for _, c := range files {
		path := filepath.Join(t.TempDir(), "container.idx")
		if err := os.WriteFile(path, c.raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bytes.NewReader(c.raw)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Load returned %v, want an error saying %q", c.name, err, c.want)
		}
		for _, mode := range []engine.OpenMode{engine.OpenHeap, engine.OpenMMap} {
			if opened, err := OpenFile(path, mode); err == nil || !strings.Contains(err.Error(), c.want) {
				if err == nil {
					opened.Close()
				}
				t.Errorf("%s: OpenFile(%v) returned %v, want an error saying %q", c.name, mode, err, c.want)
			}
		}
	}
}

// FuzzLoadContainer mutates saved containers — a two-shard index with
// tombstones and a delta buffer, and the files disorderedFiles makes
// from it: Load either fails, or loads an index that lists every id once
// across its shards' built ids and delta buffers and whose save is a
// fixed point — saved, loaded and saved again, the same bytes.
func FuzzLoadContainer(f *testing.F) {
	raw, files := disorderedFiles(f)
	f.Add(raw)
	for _, c := range files {
		f.Add(c.raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		defer s.Close()
		seen := map[int32]bool{}
		for i := range s.shards {
			sh := s.shards[i].Load()
			ids := slices.Clone(sh.builtIDs)
			for _, e := range sh.delta {
				ids = append(ids, e.id)
			}
			for _, id := range ids {
				if seen[id] {
					t.Fatalf("id %d listed twice; shard %d lists it", id, i)
				}
				seen[id] = true
			}
		}
		var first, second bytes.Buffer
		if err := s.Save(&first); err != nil {
			t.Fatalf("a loaded container does not save: %v", err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("a saved container does not load: %v", err)
		}
		defer again.Close()
		if err := again.Save(&second); err != nil {
			t.Fatalf("a reloaded container does not save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save, load, save: %d bytes, then %d other ones", first.Len(), second.Len())
		}
	})
}

// TestLoadCorrupt: truncations and bit flips must fail cleanly, never
// panic.
func TestLoadCorrupt(t *testing.T) {
	s := dirtyIndex(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for _, cut := range []int{1, 8, 40, len(good) / 2, len(good) - 3} {
		if _, err := Load(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for _, pos := range []int{0, 9, 17, 60, len(good) / 3} {
		bad := append([]byte(nil), good...)
		bad[pos] ^= 0xff
		if _, err := Load(bytes.NewReader(bad)); err == nil {
			// Flips in magic, dims and shard count (bytes 0–23) must
			// fail; deeper flips can land in vector payload or the id
			// counter, where any value decodes as structurally valid.
			if pos < 24 {
				t.Fatalf("header flip at %d accepted", pos)
			}
		}
	}
	// OpenFile dispatches on the magic before any loader runs: a tag
	// that is neither the container's nor a registered engine's fails
	// at open in both modes.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	path := filepath.Join(t.TempDir(), "badmagic.idx")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []engine.OpenMode{engine.OpenHeap, engine.OpenMMap} {
		if s, err := OpenFile(path, mode); err == nil {
			s.Close()
			t.Fatalf("%v open accepted an unknown magic", mode)
		}
	}
}

// TestWhereContainerCorruptionSurfaces: a corrupt snapshot must not
// start a healthy-looking server. One byte flipped at 301 offsets through
// the back three quarters of a two-shard gph container (the blobs'
// arenas, where a flip passes every structural check), each copy opened
// from a reader, in heap mode and mapped. A reader load and a heap open
// reject at open exactly the files a mapped open rejects by its first
// search — which fans out to both shards and so runs both content tiers
// — and on a heap-opened container no search is left to fail. A flip
// nobody rejects sits in vector payload; it is answered alike in both
// modes.
func TestWhereContainerCorruptionSurfaces(t *testing.T) {
	ds := dataset.UQVideoLike(2000, 17)
	built, err := Build(ds.Vectors, 2, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good, probe := buf.Bytes(), ds.Vectors[0]
	path := filepath.Join(t.TempDir(), "bad.idx")
	var atHeapOpen, atMapOpen, atMapSearch, accepted int
	for off := len(good) / 4; off < len(good); off += len(good) / 400 {
		bad := slices.Clone(good)
		bad[off] ^= 0xff
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, readerErr := Load(bytes.NewReader(bad))
		heap, heapErr := OpenFile(path, engine.OpenHeap)
		if (heapErr != nil) != (readerErr != nil) {
			t.Errorf("flip at %d: heap open says %v, a reader load %v", off, heapErr, readerErr)
		}
		var want []int32
		if heapErr != nil {
			atHeapOpen++
		} else if want, err = heap.Search(probe, 4); err != nil {
			t.Errorf("flip at %d: a heap-opened container failed its first search: %v", off, err)
		}
		mapped, mapErr := OpenFile(path, engine.OpenMMap)
		switch {
		case mapErr != nil:
			atMapOpen++
		default:
			var got []int32
			if got, mapErr = mapped.Search(probe, 4); mapErr != nil {
				atMapSearch++
			} else if accepted++; heapErr == nil && !slices.Equal(got, want) {
				t.Errorf("flip at %d: heap answers %v, mmap %v", off, want, got)
			}
			mapped.Close()
		}
		if (heapErr != nil) != (mapErr != nil) {
			t.Errorf("flip at %d: heap open says %v, a mapped open and its first search %v", off, heapErr, mapErr)
		}
	}
	t.Logf("heap: %d rejected at open; mmap: %d at open, %d at the first search; %d accepted", atHeapOpen, atMapOpen, atMapSearch, accepted)
	if atMapSearch == 0 || accepted == 0 {
		t.Error("the sweep should reach both the content tier and unchecked vector payload")
	}
}

// mappedIndex saves a dirty container to disk and reopens it over a
// file mapping.
func mappedIndex(t *testing.T) *Index {
	t.Helper()
	s := dirtyIndex(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "container.idx")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenFile(path, engine.OpenMMap)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMappedSearchRacesCloseAndCompact drives searches on several
// goroutines while a compaction rebuilds every shard and Close then
// releases the mapping mid-flight. Every search must either succeed or
// fail with engine.ErrIndexClosed — with the race detector on, any
// read of released mapping pages is also caught.
func TestMappedSearchRacesCloseAndCompact(t *testing.T) {
	m := mappedIndex(t)
	queries := dataset.PerturbQueries(dataset.UQVideoLike(500, 17), 6, 4, 3)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 100; i++ {
				q := queries[(g+i)%len(queries)]
				if _, err := m.Search(q, 10); err != nil && !errors.Is(err, engine.ErrIndexClosed) {
					t.Errorf("goroutine %d: unexpected error: %v", g, err)
					return
				}
			}
		}(g)
	}
	close(start)
	if err := m.Compact(); err != nil && !errors.Is(err, engine.ErrIndexClosed) {
		t.Errorf("compact: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	wg.Wait()
	if _, err := m.Search(queries[0], 5); !errors.Is(err, engine.ErrIndexClosed) {
		t.Fatalf("search after close: got %v, want ErrIndexClosed", err)
	}
}

// TestMappedTruncatedContainer: cutting an index file — a container,
// or an engine file OpenFile would adopt — at assorted lengths must
// fail at open (or, mapped, at the first search) with a clean error.
// A heap open validates everything before it returns.
func TestMappedTruncatedContainer(t *testing.T) {
	s := dirtyIndex(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{"container": buf.Bytes()}
	for _, name := range []string{"gph", "mih"} {
		_, path := engineFile(t, name)
		full, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[name] = full
	}
	queries := dataset.PerturbQueries(dataset.UQVideoLike(500, 17), 2, 4, 3)
	for name, full := range files {
		for _, keep := range []int{0, 8, len(full) / 3, len(full) / 2, len(full) - 2} {
			path := filepath.Join(t.TempDir(), "cut.idx")
			if err := os.WriteFile(path, full[:keep], 0o644); err != nil {
				t.Fatal(err)
			}
			if h, err := OpenFile(path, engine.OpenHeap); err == nil {
				h.Close()
				t.Errorf("%s truncated to %d/%d bytes: heap open succeeded", name, keep, len(full))
			}
			m, err := OpenFile(path, engine.OpenMMap)
			if err != nil {
				continue
			}
			if _, err := m.Search(queries[0], 5); err == nil {
				t.Errorf("%s truncated to %d/%d bytes: open and search both succeeded", name, keep, len(full))
			}
			m.Close()
		}
	}
}

// engineFile builds the named engine over the persist fixtures'
// collection and writes its own Save output — not a container — to a
// file.
func engineFile(t *testing.T, name string) (engine.Engine, string) {
	t.Helper()
	ds := dataset.UQVideoLike(500, 17)
	e, err := engine.Build(name, ds.Vectors, engine.BuildOptions{NumPartitions: 4, MaxTau: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name+".idx")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return e, path
}

// TestOpenFileAdoptsEngineFile: an engine's own file opened through
// OpenFile is the degenerate sharded index — one shard, global id ==
// engine id, empty buffers. In heap and mmap mode alike it answers
// exactly as the engine does, takes the whole update lifecycle
// (insert → delete → compact → SaveFile, which writes a container
// that reopens), and a mapped one fails cleanly after Close.
func TestOpenFileAdoptsEngineFile(t *testing.T) {
	queries := dataset.PerturbQueries(dataset.UQVideoLike(500, 17), 6, 4, 3)
	for _, name := range []string{"gph", "hmsearch"} {
		bare, path := engineFile(t, name)
		for _, mode := range []engine.OpenMode{engine.OpenHeap, engine.OpenMMap} {
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				s, err := OpenFile(path, mode)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if s.Engine() != name || s.NumShards() != 1 || s.Len() != bare.Len() || s.Dims() != bare.Dims() {
					t.Fatalf("adopted %s: %d shards, %d×%d; engine is %d×%d",
						s.Engine(), s.NumShards(), s.Len(), s.Dims(), bare.Len(), bare.Dims())
				}
				if mode == engine.OpenMMap && s.MappedBytes() == 0 {
					t.Fatal("mmap open reports no mapping")
				}
				if st := s.ShardStats()[0]; st.Indexed != bare.Len() || st.Delta != 0 || st.Tombstones != 0 {
					t.Fatalf("adopted shard not clean: %+v", st)
				}
				for _, q := range queries {
					for _, tau := range []int{0, 8, 16} {
						want, err := bare.Search(q, tau)
						if err != nil {
							t.Fatal(err)
						}
						got, err := s.Search(q, tau)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("tau=%d: adopted %v, engine %v", tau, got, want)
						}
					}
					wantNN, err := bare.SearchKNN(q, 5)
					if err != nil {
						t.Fatal(err)
					}
					gotNN, err := s.SearchKNN(q, 5)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(gotNN, wantNN) {
						t.Fatalf("kNN: adopted %v, engine %v", gotNN, wantNN)
					}
				}
				if v, ok := s.Vector(3); !ok || !v.Equal(bare.Vector(3)) {
					t.Fatal("Vector(3) differs from the engine's")
				}
				// A τ-bounded engine keeps its bound through adoption, for
				// queries now and for the compaction rebuild below.
				if name == "hmsearch" {
					if _, err := s.Search(queries[0], 17); !errors.Is(err, engine.ErrTauExceedsBuild) {
						t.Fatalf("tau beyond the adopted bound: %v", err)
					}
				}

				// The update lifecycle. ids continue after the engine's.
				extra := queries[0]
				id, err := s.Insert(extra)
				if err != nil {
					t.Fatal(err)
				}
				if int(id) != bare.Len() {
					t.Fatalf("first insert got id %d, want %d", id, bare.Len())
				}
				if err := s.Delete(3); err != nil {
					t.Fatal(err)
				}
				check := func(s *Index, stage string) {
					t.Helper()
					got, err := s.Search(extra, 0)
					if err != nil {
						t.Fatalf("%s: %v", stage, err)
					}
					if !slices.Contains(got, id) {
						t.Fatalf("%s: inserted id %d missing from %v", stage, id, got)
					}
					got, err = s.Search(bare.Vector(3), 0)
					if err != nil {
						t.Fatalf("%s: %v", stage, err)
					}
					if slices.Contains(got, 3) {
						t.Fatalf("%s: deleted id 3 still answered", stage)
					}
				}
				check(s, "buffered")
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
				if st := s.ShardStats()[0]; st.Indexed != bare.Len() || st.Delta != 0 || st.Tombstones != 0 {
					t.Fatalf("compaction left %+v", st)
				}
				check(s, "compacted")
				snap := filepath.Join(t.TempDir(), "snap.idx")
				if err := s.SaveFile(snap); err != nil {
					t.Fatal(err)
				}
				re, err := OpenFile(snap, mode)
				if err != nil {
					t.Fatalf("reopening the checkpoint as a container: %v", err)
				}
				defer re.Close()
				if re.Engine() != name || re.Len() != bare.Len() {
					t.Fatalf("reopened %s with %d vectors", re.Engine(), re.Len())
				}
				check(re, "reopened")

				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Search(extra, 0); mode == engine.OpenMMap && !errors.Is(err, engine.ErrIndexClosed) {
					t.Fatalf("search after closing a mapped index: %v, want ErrIndexClosed", err)
				}
			})
		}
	}
}

// lookupArrays returns where the directory or rank array of each of a
// GPH index's partitions starts: what a lookup reads to find a key's
// entry, written with the index and read, like its arenas, in place.
func lookupArrays(ix *core.Index) []uintptr {
	var at []uintptr
	inv := reflect.ValueOf(ix).Elem().FieldByName("inv")
	for p := range inv.Len() {
		f := inv.Index(p).Elem()
		for _, name := range []string{"dir16", "dir32"} {
			if dir := f.FieldByName(name); dir.Len() > 0 {
				at = append(at, dir.Pointer())
			}
		}
	}
	return at
}

// TestMappedOpenBorrows is the zero-copy gate of the mapped opens. Every
// registered engine's file, and a container of two GPH shards, opened
// over a mapping serves its vectors from the mapping's bytes: the rows
// its kernels scan. GPH's and linscan's own files open in the same bytes
// at n and at 4n rows, and the container in the same bytes but for its
// id → shard map: a decode that copied any arena, or made anything a
// row, allocates in proportion to n; and GPH's vectors, and each
// partition's bucket directory or rank array, lie in the mapping. Either
// failure leaves every answer right, so no other test would see it. (The
// other baselines rebuild their inverted indexes from the mapped rows at
// open, so their opens grow with n by design; the test logs by how much.)
func TestMappedOpenBorrows(t *testing.T) {
	const n = 1000
	opts := core.Options{NumPartitions: 4, MaxTau: 8, Seed: 1}
	save := func(t *testing.T, name string, rows int) string {
		path := filepath.Join(t.TempDir(), "index")
		data := dataset.SIFTLike(rows, 3).Vectors
		if name == "container" {
			s, err := Build(data, 2, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			return path
		}
		e, err := engine.Build(name, data, engine.BuildOptions{NumPartitions: opts.NumPartitions, MaxTau: opts.MaxTau, Seed: opts.Seed})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// allocated is the least of three runs' bytes allocated: another
	// goroutine may allocate during one.
	allocated := func(t *testing.T, run func() io.Closer) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c := run()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return least
	}
	for _, name := range append(engine.Names(), "container") {
		t.Run(name, func(t *testing.T) {
			var grew, owners [2]uint64
			for i, rows := range []int{n, 4 * n} {
				path := save(t, name, rows)
				grew[i] = allocated(t, func() io.Closer {
					var c io.Closer
					var err error
					if name == "container" {
						c, err = OpenFile(path, engine.OpenMMap)
					} else {
						c, err = engine.Open(path, engine.OpenMMap)
					}
					if err != nil {
						t.Fatal(err)
					}
					return c
				})
				if name == "container" { // its owner map, built as a load builds it
					owners[i] = allocated(t, func() io.Closer {
						owner := make(map[int32]int32)
						for id := range int32(rows) {
							owner[id] = id % 2
						}
						return io.NopCloser(nil)
					})
				}
				s, err := OpenFile(path, engine.OpenMMap)
				if err != nil {
					t.Fatal(err)
				}
				mapped := s.mapping.Data()
				base := uintptr(unsafe.Pointer(unsafe.SliceData(mapped)))
				for i := range s.shards {
					built := s.shards[i].Load().built
					w := built.Vector(0).Words()
					if uintptr(unsafe.Pointer(&w[0]))-base >= uintptr(len(mapped)) {
						t.Errorf("%d rows: shard %d's vector 0 is not in the mapping: a copy", rows, i)
					}
					if ix, ok := built.(*core.Index); ok {
						for _, at := range lookupArrays(ix) {
							if at-base >= uintptr(len(mapped)) {
								t.Errorf("%d rows: shard %d has a bucket directory or rank array that is not in the mapping: a copy", rows, i)
							}
						}
					}
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			allowed := 1024 + owners[1] - owners[0] + owners[1]/32
			t.Logf("a mapped open allocates %d B at %d rows, %d B at %d (an id → shard map %d B, %d B)", grew[0], n, grew[1], 4*n, owners[0], owners[1])
			if (name == core.EngineName || name == "linscan" || name == "container") && grew[1] > grew[0]+allowed {
				t.Errorf("a mapped open allocates %d B at %d rows and %d B at %d, more than %d B more: it grows with n", grew[0], n, grew[1], 4*n, allowed)
			}
		})
	}
}
