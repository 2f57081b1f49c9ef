package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gph/internal/bitvec"
	"gph/internal/dataset"
	"gph/internal/engine/enginetest"
	"gph/internal/linscan"
	"gph/internal/partition"
)

func testData(t *testing.T, n int, seed int64) []bitvec.Vector {
	t.Helper()
	return dataset.Synthetic(n, 64, 0.3, seed).Vectors
}

func buildSmall(t *testing.T, data []bitvec.Vector, opts Options) *Index {
	t.Helper()
	if opts.SampleSize == 0 {
		opts.SampleSize = 200
	}
	if opts.WorkloadSize == 0 {
		opts.WorkloadSize = 10
	}
	if opts.MaxTau == 0 {
		opts.MaxTau = 12
	}
	ix, err := Build(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Fatal("empty data accepted")
	}
	if _, err := Build([]bitvec.Vector{bitvec.New(0)}, Options{}); err == nil {
		t.Fatal("zero-dim vectors accepted")
	}
	bad := []bitvec.Vector{bitvec.New(8), bitvec.New(9)}
	if _, err := Build(bad, Options{}); err == nil {
		t.Fatal("mixed dims accepted")
	}
}

func TestSearchRejectsBadQueries(t *testing.T) {
	ix := buildSmall(t, testData(t, 300, 1), Options{NumPartitions: 4, Seed: 1})
	if _, err := ix.Search(bitvec.New(63), 2); err == nil {
		t.Fatal("wrong-dims query accepted")
	}
	if _, err := ix.Search(bitvec.New(64), -1); err == nil {
		t.Fatal("negative tau accepted")
	}
}

// TestSearchMatchesOracle is the central correctness property: for
// every configuration, GPH returns exactly the linear-scan result set.
func TestSearchMatchesOracle(t *testing.T) {
	data := testData(t, 5000, 2)
	oracle, err := linscan.New(data)
	if err != nil {
		t.Fatal(err)
	}
	queries := dataset.PerturbQueries(&dataset.Dataset{Name: "t", Dims: 64, Vectors: data}, 15, 3, 3)

	configs := []Options{
		{NumPartitions: 4, Seed: 1},
		{NumPartitions: 4, Seed: 1, Init: InitOriginal, NoRefine: true},
		{NumPartitions: 4, Seed: 1, Init: InitRandom, NoRefine: true},
		{NumPartitions: 4, Seed: 1, Init: InitOS, NoRefine: true},
		{NumPartitions: 4, Seed: 1, Init: InitDD, NoRefine: true},
		{NumPartitions: 4, Seed: 3, Allocator: AllocRR, Init: InitRandom, NoRefine: true},
		{NumPartitions: 4, Seed: 4, EnumBudget: 64}, // tiny budget forces escalation/scan paths
	}
	for ci, opts := range configs {
		ix := buildSmall(t, data, opts)
		for qi, q := range queries {
			for _, tau := range []int{0, 1, 4, 8, 12} {
				want, _ := oracle.Search(q, tau)
				got, err := ix.Search(q, tau)
				if err != nil {
					t.Fatalf("config %d query %d tau %d: %v", ci, qi, tau, err)
				}
				if !equalIDs(want, got) {
					t.Fatalf("config %d query %d tau %d: want %d results, got %d",
						ci, qi, tau, len(want), len(got))
				}
			}
		}
	}
}

func TestSearchTauCoversSpace(t *testing.T) {
	data := testData(t, 100, 6)
	ix := buildSmall(t, data, Options{NumPartitions: 4, Seed: 1})
	got, err := ix.Search(data[0], 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(data) {
		t.Fatalf("tau=dims should return everything, got %d", len(got))
	}
}

func TestSearchStats(t *testing.T) {
	data := testData(t, 4000, 7)
	ix := buildSmall(t, data, Options{NumPartitions: 4, Seed: 1})
	_, st, err := ix.SearchStats(data[0], 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Results < 1 {
		t.Fatal("query vector itself must be a result")
	}
	if !st.Scanned {
		if st.Candidates < st.Results {
			t.Fatalf("candidates %d < results %d", st.Candidates, st.Results)
		}
		if st.SumPostings < int64(st.Candidates) {
			t.Fatalf("sum postings %d < candidates %d", st.SumPostings, st.Candidates)
		}
		if err := checkVectorSum(st.Thresholds, 4); err != nil {
			t.Fatal(err)
		}
	}
	if st.TotalNanos() <= 0 {
		t.Fatal("no time recorded")
	}
}

func checkVectorSum(T []int, tau int) error {
	sum := 0
	for _, e := range T {
		sum += e
	}
	if want := tau - len(T) + 1; sum != want {
		return &mismatchError{sum, want}
	}
	return nil
}

type mismatchError struct{ got, want int }

func (e *mismatchError) Error() string { return "threshold sum mismatch" }

func TestSearchBatchMatchesSequential(t *testing.T) {
	data := testData(t, 4000, 8)
	ix := buildSmall(t, data, Options{NumPartitions: 4, Seed: 1})
	queries := dataset.PerturbQueries(&dataset.Dataset{Name: "t", Dims: 64, Vectors: data}, 12, 3, 9)
	batch, err := ix.SearchBatch(queries, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want, _ := ix.Search(q, 6)
		if !equalIDs(want, batch[i]) {
			t.Fatalf("batch result %d differs", i)
		}
	}
}

func TestSearchBatchPropagatesError(t *testing.T) {
	data := testData(t, 100, 9)
	ix := buildSmall(t, data, Options{NumPartitions: 4, Seed: 1})
	queries := []bitvec.Vector{data[0], bitvec.New(63)}
	if _, err := ix.SearchBatch(queries, 2, 2); err == nil {
		t.Fatal("batch swallowed a bad query")
	}
}

func TestExplicitWorkload(t *testing.T) {
	data := testData(t, 3000, 10)
	wl := partition.SurrogateWorkload(data, 8, []int{4}, 1)
	ix := buildSmall(t, data, Options{NumPartitions: 4, Seed: 1, Workload: &wl})
	if _, err := ix.Search(data[0], 4); err != nil {
		t.Fatal(err)
	}
	badWl := partition.Workload{Queries: data[:2], Taus: []int{1}}
	if _, err := Build(data, Options{NumPartitions: 4, Workload: &badWl}); err == nil {
		t.Fatal("invalid workload accepted")
	}
}

func TestAccessors(t *testing.T) {
	data := testData(t, 200, 11)
	ix := buildSmall(t, data, Options{NumPartitions: 4, Seed: 1})
	if ix.Dims() != 64 || ix.Len() != 200 {
		t.Fatal("Dims/Len wrong")
	}
	if !ix.Vector(7).Equal(data[7]) {
		t.Fatal("Vector accessor wrong")
	}
	if ix.SizeBytes() <= 0 {
		t.Fatal("SizeBytes")
	}
	bs := ix.BuildStats()
	if bs.PartitionNanos <= 0 || bs.IndexNanos <= 0 {
		t.Fatalf("build stats not recorded: %+v", bs)
	}
	if err := ix.Partitioning().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPersistRoundTrip(t *testing.T) {
	data := testData(t, 4000, 12)
	ix := buildSmall(t, data, Options{NumPartitions: 4, Seed: 1})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	queries := dataset.PerturbQueries(&dataset.Dataset{Name: "t", Dims: 64, Vectors: data}, 8, 3, 13)
	for _, q := range queries {
		want, _ := ix.Search(q, 6)
		got, err := loaded.Search(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(want, got) {
			t.Fatal("loaded index answers differently")
		}
	}
}

// TestPersistRoundTripOptions: an option is carried by Save or declared
// not carried, by construction. Every field of Options is set non-zero
// and the built index round-tripped; the fields Load does not hand back
// are exactly the list below — what only a build reads, and what only
// the sharded layer does. A new field with no
// decision fails here, the way GPHIX01 dropped Init and Allocator (a
// round-tripped AllocRR index answered with the DP) and no format ever
// carried the learned estimators' configuration.
func TestPersistRoundTripOptions(t *testing.T) {
	data := testData(t, 300, 12)
	var opts Options
	enginetest.SetNonZero(t, &opts)
	opts.Workload = &partition.Workload{Queries: data[:2], Taus: []int{2, 3}}
	ix := buildSmall(t, data, opts)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	notCarried := []string{
		"NoRefine", "Workload", "WorkloadSize", "SampleSize", "BuildParallelism", "WALPath",
		"AutoCompactDelta", "CacheBytes",
	}
	if lost := enginetest.FieldsThatDiffer(loaded.Options(), ix.Options()); !slices.Equal(lost, notCarried) {
		t.Fatalf("options Load did not hand back:\n     %v\nwant %v\npersist a new field in saveOptions or declare it here", lost, notCarried)
	}
}

func TestPersistDeterministic(t *testing.T) {
	data := testData(t, 150, 13)
	ix := buildSmall(t, data, Options{NumPartitions: 3, Seed: 1})
	var a, b bytes.Buffer
	if err := ix.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Save output not byte-reproducible")
	}
}

// TestLoadCorrupt injects faults into every region of the container
// and requires clean errors, never panics.
func TestLoadCorrupt(t *testing.T) {
	data := testData(t, 100, 14)
	ix := buildSmall(t, data, Options{NumPartitions: 3, Seed: 1})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	if _, err := Load(bytes.NewReader(append([]byte("BADMAGIC"), raw[8:]...))); err == nil {
		t.Fatal("bad magic accepted")
	}
	for _, cut := range []int{10, 100, len(raw) / 2, len(raw) - 3} {
		if _, err := Load(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 30; trial++ {
		corrupted := append([]byte(nil), raw...)
		pos := 8 + rng.Intn(len(raw)-8)
		corrupted[pos] ^= 0xFF
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("corruption at byte %d caused panic: %v", pos, p)
				}
			}()
			ix2, err := Load(bytes.NewReader(corrupted))
			// Either a clean error, or the flip landed in a harmless
			// spot (e.g., estimator seed) and the index still validates.
			if err == nil {
				if ix2.Partitioning().Validate() != nil {
					t.Fatalf("corruption at byte %d produced invalid index silently", pos)
				}
			}
		}()
	}
}

// TestCandidateCompleteness property-checks the general pigeonhole
// guarantee directly: every true result must be in the candidate set
// (Results counts verified candidates, so equality with the oracle
// implies no candidate was missed).
func TestCandidateCompleteness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2000 + rng.Intn(2000)
		data := dataset.Synthetic(n, 32, 0.25, seed).Vectors
		oracle, _ := linscan.New(data)
		ix, err := Build(data, Options{
			NumPartitions: 2 + rng.Intn(3), Seed: seed,
			SampleSize: 100, WorkloadSize: 6, MaxTau: 8,
		})
		if err != nil {
			t.Error(err)
			return false
		}
		q := data[rng.Intn(len(data))].Clone()
		for f := 0; f < rng.Intn(4); f++ {
			q.Flip(rng.Intn(32))
		}
		tau := rng.Intn(9)
		want, _ := oracle.Search(q, tau)
		got, err := ix.Search(q, tau)
		if err != nil {
			t.Error(err)
			return false
		}
		return equalIDs(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestKindStrings(t *testing.T) {
	if InitGreedy.String() != "GR" || InitOS.String() != "OS" || InitDD.String() != "DD" {
		t.Fatal("InitKind labels drifted")
	}
	if AllocDP.String() != "DP" || AllocRR.String() != "RR" {
		t.Fatal("AllocatorKind labels drifted")
	}
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSearchKNN(t *testing.T) {
	data := testData(t, 4000, 20)
	ix := buildSmall(t, data, Options{NumPartitions: 4, Seed: 1})
	q := data[17].Clone()
	q.Flip(3)
	for _, k := range []int{1, 5, 20} {
		got, err := ix.SearchKNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("k=%d: returned %d", k, len(got))
		}
		// Verify against a sorted scan.
		type pair struct {
			id int32
			d  int
		}
		all := make([]pair, len(data))
		for id, v := range data {
			all[id] = pair{int32(id), q.Hamming(v)}
		}
		// kth smallest distance:
		ds := make([]int, len(all))
		for i, p := range all {
			ds[i] = p.d
		}
		slicesSort(ds)
		kth := ds[k-1]
		for i, nb := range got {
			if nb.Distance != q.Hamming(data[nb.ID]) {
				t.Fatal("reported distance wrong")
			}
			if nb.Distance > kth {
				t.Fatalf("result %d at distance %d beyond kth smallest %d", i, nb.Distance, kth)
			}
			if i > 0 && (got[i-1].Distance > nb.Distance) {
				t.Fatal("results not sorted by distance")
			}
		}
	}
	if _, err := ix.SearchKNN(q, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if got, err := ix.SearchKNN(q, len(data)+10); err != nil || len(got) != len(data) {
		t.Fatalf("k beyond N: %v, %d", err, len(got))
	}
}

func slicesSort(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestScanGuard forces the scan path: a τ so large relative to the
// collection that every plan costs more than verification.
func TestScanGuard(t *testing.T) {
	data := testData(t, 120, 21)
	ix := buildSmall(t, data, Options{NumPartitions: 4, Seed: 1})
	_, st, err := ix.SearchStats(data[0], 40)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Scanned {
		t.Skip("plan cost stayed below scan cost at this size") // not an error: guard is cost-driven
	}
	if st.Candidates != len(data) {
		t.Fatalf("scan path candidates = %d", st.Candidates)
	}
}

// TestSearchBeyondMaxTau: MaxTau tunes estimator training, it is not a
// hard limit; queries beyond it must still be exact.
func TestSearchBeyondMaxTau(t *testing.T) {
	data := testData(t, 300, 22)
	ix := buildSmall(t, data, Options{NumPartitions: 4, Seed: 1, MaxTau: 4})
	oracle, _ := linscan.New(data)
	q := data[9]
	want, _ := oracle.Search(q, 10)
	got, err := ix.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(want, got) {
		t.Fatalf("τ beyond MaxTau lost results: want %d got %d", len(want), len(got))
	}
}
