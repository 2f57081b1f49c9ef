package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"gph/internal/binio"
	"gph/internal/dataset"
)

// savedBytes is ix as Save writes it.
func savedBytes(t testing.TB, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestValidateAllocatesNothingPerRow: at 64 and 128 dimensions — whole
// words a row, so no tail to check — the content tier allocates as often,
// and as many bytes give or take a page, at 20 000 rows as at 2 000: it
// makes nothing per row, and the bucket directories it judges were read
// with the file.
func TestValidateAllocatesNothingPerRow(t *testing.T) {
	const runs = 4
	for _, dims := range []int{64, 128} {
		var allocs [2]float64
		var heap [2]uint64
		for i, n := range []int{2000, 20000} {
			raw := savedBytes(t, buildSmall(t, dataset.Synthetic(n, dims, 0.3, 5).Vectors, Options{NumPartitions: dims / 32, Seed: 1}))
			fresh := make([]*Index, 2*(runs+1))
			for k := range fresh {
				ix, err := LoadDeferred(binio.NewSource(raw))
				if err != nil {
					t.Fatal(err)
				}
				fresh[k] = ix
			}
			next := 0
			validate := func() {
				if err := fresh[next].Validate(); err != nil {
					t.Fatal(err)
				}
				next++
			}
			allocs[i] = testing.AllocsPerRun(runs, validate)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs + 1 {
				validate()
			}
			runtime.ReadMemStats(&after)
			heap[i] = (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
		}
		if allocs[0] != allocs[1] || heap[1] > heap[0]+4096 {
			t.Errorf("dims %d: Validate makes %v allocations (%d B) at 2 000 rows, %v (%d B) at 20 000", dims, allocs[0], heap[0], allocs[1], heap[1])
		}
	}
}

// FuzzLoadIndex hammers the whole GPHIX13 file: whatever the bytes, a
// deferred load then Validate, and an eager Load, never panic and agree
// on the verdict to the message. An accepted index answers a search for
// each of its own rows at τ ∈ {0, 2} with ids a brute-force pass over its
// own rows finds — all of them where the scan answered. Where the index
// answered, it may miss some: the content tier checks that the posting
// lists are well formed, not that they index these rows, so a file whose
// postings and rows disagree is accepted and the index follows its
// postings.
func FuzzLoadIndex(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "index-gphix13.bin"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	wide, err := Build(dataset.Synthetic(60, 70, 0.3, 11).Vectors, Options{NumPartitions: 2, SampleSize: 60, WorkloadSize: 10, MaxTau: 8, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(savedBytes(f, wide))

	f.Fuzz(func(t *testing.T, data []byte) {
		eager, eagerErr := Load(bytes.NewReader(data))
		ix, err := LoadDeferred(binio.NewSource(data))
		if err == nil {
			err = ix.Validate()
		}
		if fmt.Sprint(err) != fmt.Sprint(eagerErr) {
			t.Fatalf("a deferred load and Validate say %v, an eager Load %v", err, eagerErr)
		}
		if err != nil {
			return
		}
		codes := eager.codes
		for id := range eager.Len() {
			q := eager.Vector(int32(id))
			for _, tau := range []int{0, 2} {
				var want []int32
				for r := range codes.Len() {
					if codes.Distance(q, int32(r)) <= tau {
						want = append(want, int32(r))
					}
				}
				got, st, err := eager.SearchStats(q, tau)
				if err != nil {
					t.Fatalf("row %d, tau %d: %v", id, tau, err)
				}
				if st.Scanned && !slices.Equal(got, want) {
					t.Fatalf("row %d, tau %d: the scan answers %v, brute force %v", id, tau, got, want)
				}
				for _, r := range got {
					if _, ok := slices.BinarySearch(want, r); !ok {
						t.Fatalf("row %d, tau %d: the index answers %v, brute force %v", id, tau, got, want)
					}
				}
			}
		}
	})
}

// BenchmarkValidate times the content tier alone — what
// BenchmarkOpenFirstQuery (package gph) reports as validate_us — at the
// two lib workloads' shapes, n = 20 000, each run over a fresh in-place
// load of the saved index. ns/entry is the run's wall time over the
// frozen entries of every partition; the partitions validate side by
// side, so -cpu 1 gives the serial cost of an entry.
func BenchmarkValidate(b *testing.B) {
	for _, name := range []string{"uqvideo", "sift"} {
		b.Run(name, func(b *testing.B) {
			ds, err := dataset.ByName(name, 20000, 1)
			if err != nil {
				b.Fatal(err)
			}
			built, err := Build(ds.Vectors, Options{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			raw := savedBytes(b, built)
			entries := 0
			for _, inv := range built.inv {
				entries += inv.NumKeys()
			}
			b.ResetTimer()
			for range b.N {
				b.StopTimer()
				ix, err := LoadDeferred(binio.NewSource(raw))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := ix.Validate(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(entries), "ns/entry")
		})
	}
}
