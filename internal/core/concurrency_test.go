package core

import (
	"bytes"
	"sync"
	"testing"

	"gph/internal/bitvec"
	"gph/internal/dataset"
)

// TestBuildParallelismIdentical: the parallel build must produce an
// index byte-identical to the serial one — partitions are independent
// and each is built whole by one worker, so only wall-clock changes.
func TestBuildParallelismIdentical(t *testing.T) {
	data := testData(t, 400, 21)
	opts := Options{NumPartitions: 4, Seed: 1, SampleSize: 200, WorkloadSize: 10, MaxTau: 12}

	serialOpts := opts
	serialOpts.BuildParallelism = 1
	serial, err := Build(data, serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	parallelOpts := opts
	parallelOpts.BuildParallelism = 8
	parallel, err := Build(data, parallelOpts)
	if err != nil {
		t.Fatal(err)
	}

	var a, b bytes.Buffer
	if err := serial.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("parallel build produced a different index than serial build")
	}
}

// TestConcurrentSearch hammers one index from many goroutines; under
// -race it exercises the scratch pool for aliasing between queries.
func TestConcurrentSearch(t *testing.T) {
	data := testData(t, 5000, 22)
	ix := buildSmall(t, data, Options{NumPartitions: 4, Seed: 1})
	queries := dataset.PerturbQueries(
		&dataset.Dataset{Name: "t", Dims: 64, Vectors: data}, 16, 3, 23)

	want := make([][]int32, len(queries))
	for i, q := range queries {
		ids, err := ix.Search(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ids
	}

	const goroutines = 16
	const rounds = 20
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(queries)
				got, err := ix.Search(queries[i], 6)
				if err != nil {
					errCh <- err
					return
				}
				if !equalIDs(want[i], got) {
					errCh <- &mismatchError{len(got), len(want[i])}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestSearchBatchPartialFailure: one bad query among many must not
// panic, abort the batch, or lose sibling results.
func TestSearchBatchPartialFailure(t *testing.T) {
	data := testData(t, 4000, 24)
	ix := buildSmall(t, data, Options{NumPartitions: 4, Seed: 1})
	queries := []bitvec.Vector{
		data[0],
		bitvec.New(63), // wrong dimensionality → per-query error
		data[1],
		data[2],
	}
	out, err := ix.SearchBatch(queries, 4, 2)
	if err == nil {
		t.Fatal("bad query reported no error")
	}
	if len(out) != len(queries) {
		t.Fatalf("got %d result slots, want %d", len(out), len(queries))
	}
	if out[1] != nil {
		t.Fatal("failed query produced results")
	}
	for _, i := range []int{0, 2, 3} {
		want, serr := ix.Search(queries[i], 4)
		if serr != nil {
			t.Fatal(serr)
		}
		if !equalIDs(want, out[i]) {
			t.Fatalf("sibling result %d lost or corrupted by failing query", i)
		}
	}
}

// TestSearchStatsFusedProbe checks the invariants the fused
// candidate-generation loop must preserve: its work counters still
// populate — signatures probed or keys scanned, whichever it chose —
// and its time is reported as ProbeNanos.
func TestSearchStatsFusedProbe(t *testing.T) {
	data := testData(t, 16000, 25)
	ix := buildSmall(t, data, Options{NumPartitions: 4, Seed: 1})
	_, st, err := ix.SearchStats(data[3], 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scanned {
		t.Fatalf("a stored vector at tau=4 over %d rows was answered by scan: %+v", len(data), *st)
	}
	if st.Signatures+st.KeysScanned < 1 {
		t.Fatal("neither signatures nor scanned keys recorded")
	}
	if st.ProbeNanos <= 0 {
		t.Fatal("fused probe loop recorded no time")
	}
}
