// Micro-benchmarks of the public API's hot paths, the baselines' builds
// and the open path. The paper's tables are cmd/gph-bench's reproduction
// ledger (DESIGN.md §4), not benchmarks here.
package gph_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"gph"
	"gph/datagen"
	"gph/internal/binio"
	"gph/internal/cpu"
	"gph/internal/dataset"
	"gph/internal/engine"
	"gph/internal/mmapio"
)

func BenchmarkHamming(b *testing.B) {
	ds := datagen.GISTLike(2, 1)
	x, y := ds.Vectors[0], ds.Vectors[1]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = gph.Hamming(x, y)
	}
}

func benchSearch(b *testing.B, name string, n, tau int) {
	b.Helper()
	ds, err := datagen.ByName(name, n, 1)
	if err != nil {
		b.Fatal(err)
	}
	index, err := gph.Build(ds.Vectors, gph.Options{Seed: 1, MaxTau: tau * 2})
	if err != nil {
		b.Fatal(err)
	}
	q := ds.Vectors[n/2].Clone()
	q.Flip(0)
	q.Flip(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := index.Search(q, tau); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchSIFT(b *testing.B)    { benchSearch(b, "sift", 10000, 6) }
func BenchmarkSearchGIST(b *testing.B)    { benchSearch(b, "gist", 10000, 12) }
func BenchmarkSearchPubChem(b *testing.B) { benchSearch(b, "pubchem", 5000, 16) }
func BenchmarkSearchUQVideo(b *testing.B) { benchSearch(b, "uqvideo", 10000, 16) }

func benchBuild(b *testing.B, parallelism int) {
	b.Helper()
	ds := datagen.GISTLike(5000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := gph.Options{Seed: 1, MaxTau: 16, BuildParallelism: parallelism}
		if _, err := gph.Build(ds.Vectors, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildGIST(b *testing.B)         { benchBuild(b, 0) } // GOMAXPROCS workers
func BenchmarkBuildGISTSerial(b *testing.B)   { benchBuild(b, 1) }
func BenchmarkBuildGISTParallel(b *testing.B) { benchBuild(b, 4) }

func BenchmarkBatchSearch(b *testing.B) {
	ds := datagen.UQVideoLike(10000, 1)
	index, err := gph.Build(ds.Vectors, gph.Options{Seed: 1, MaxTau: 16})
	if err != nil {
		b.Fatal(err)
	}
	queries := ds.Vectors[:32]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := index.SearchBatch(queries, 12, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineBuild measures what the baselines' inverted indexes
// cost on the lib workloads' corpora (n = 20 000, built for τ = 16 on
// the sift-like one and 8 on the uqvideo-like one): build_s and load_s
// are the best of b.N — every baseline rebuilds its indexes on Load, so
// a load pays the build again — index_mb is SizeBytes, and peak_rss_mb is
// the process's resident high-water mark over the first build, from a
// mark reset just before it (Linux; 0 where /proc/self/clear_refs is
// refused).
//
//	go test -run '^$' -bench BaselineBuild -benchtime 5x .
func BenchmarkBaselineBuild(b *testing.B) {
	for _, c := range []struct {
		corpus string
		tau    int
	}{{"sift", 16}, {"uqvideo", 8}} {
		ds, err := datagen.ByName(c.corpus, 20000, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range []string{"mih", "hmsearch", "partalloc", "lsh"} {
			b.Run(c.corpus+"/"+name, func(b *testing.B) {
				peakRSS := resetPeakRSS()
				build, load, rss := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64), 0.0
				var size int64
				for i := 0; i < b.N; i++ {
					start := time.Now()
					e, err := gph.BuildEngine(name, ds.Vectors, gph.EngineOptions{Seed: 42, MaxTau: c.tau})
					if err != nil {
						b.Fatal(err)
					}
					build = min(build, time.Since(start))
					if i == 0 {
						rss = peakRSS()
					}
					var file bytes.Buffer
					if err := e.Save(&file); err != nil {
						b.Fatal(err)
					}
					start = time.Now()
					if _, err := gph.LoadAny(&file); err != nil {
						b.Fatal(err)
					}
					load, size = min(load, time.Since(start)), e.SizeBytes()
				}
				b.ReportMetric(build.Seconds(), "build_s")
				b.ReportMetric(load.Seconds(), "load_s")
				b.ReportMetric(float64(size)/(1<<20), "index_mb")
				b.ReportMetric(rss, "peak_rss_mb")
			})
		}
	}
}

// resetPeakRSS returns everything collected to the OS, resets the
// process's resident high-water mark, and returns a function reading it
// in MiB — 0 where the kernel offers neither.
func resetPeakRSS() func() float64 {
	runtime.GC()
	debug.FreeOSMemory()
	if os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) != nil {
		return func() float64 { return 0 }
	}
	return func() float64 {
		status, _ := os.ReadFile("/proc/self/status")
		for _, line := range strings.Split(string(status), "\n") {
			if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				n, _ := strconv.Atoi(strings.TrimSpace(strings.TrimSuffix(kb, "kB")))
				return float64(n) / 1024
			}
		}
		return 0
	}
}

// BenchmarkBaselineGrid regenerates the "change" and "scan" columns of
// HmSearch's verdict table (recorded in CHANGES.md, PR 28), and the same
// grid for MIH (core's round-robin build, whose guard is GPH's): each
// served through one shard, built for τ ≤ 32, 50 perturbed queries a cell — ns a query under
// each route (the engine's own choice, and the index and the scan forced
// by cpu.Force), with what the engine's own guard did beside it: the
// share of the cell's queries it abandoned to the scan after probing, and
// the priced work (engine.ProbePrice a signature, CandidatePrice a
// posting) a query spent on the index. A corpus and an index are built
// when -bench selects their level; the table is the best of five of
//
//	go test -run '^$' -bench 'BaselineGrid/n=20000' -benchtime 250x -count 5 .
func BenchmarkBaselineGrid(b *testing.B) {
	for _, n := range []int{20000, 100000} {
		for _, corpus := range []string{"sift", "uqvideo"} {
			for _, eng := range []string{"mih", "hmsearch"} {
				b.Run(fmt.Sprintf("n=%d/%s/%s", n, corpus, eng), func(b *testing.B) {
					ds, err := dataset.ByName(corpus, n, 1)
					if err != nil {
						b.Fatal(err)
					}
					queries := dataset.PerturbQueries(ds, 50, 4, 7)
					s, err := gph.BuildShardedEngine(eng, ds.Vectors, 1, gph.Options{MaxTau: 32, Seed: 1})
					if err != nil {
						b.Fatal(err)
					}
					defer s.Close()
					for _, route := range []cpu.Route{cpu.RouteAdaptive, cpu.RouteIndex, cpu.RouteScan} {
						func() {
							defer cpu.Force(cpu.Setting{Route: route})()
							for _, tau := range []int{2, 4, 6, 8, 12, 16, 24, 32} {
								var abandoned, spent float64
								for _, q := range queries {
									_, st, err := s.SearchStats(q, tau)
									if err != nil {
										b.Fatal(err)
									}
									if st.Scanned && st.Signatures > 0 {
										abandoned++
									}
									spent += float64(engine.ProbePrice*int64(st.Signatures) + engine.CandidatePrice*st.SumPostings)
								}
								b.Run(fmt.Sprintf("%v/tau=%d", route, tau), func(b *testing.B) {
									for i := 0; i < b.N; i++ {
										if _, err := s.Search(queries[i%len(queries)], tau); err != nil {
											b.Fatal(err)
										}
									}
									b.ReportMetric(abandoned/float64(len(queries)), "abandoned")
									b.ReportMetric(spent/float64(len(queries)), "steps-spent")
								})
							}
						}()
					}
				})
			}
		}
	}
}

// openN sizes BenchmarkOpenFirstQuery's corpora.
var openN = flag.Int("open-n", 20000, "rows of BenchmarkOpenFirstQuery's corpora")

// BenchmarkOpenFirstQuery says where a start goes: what benchmark/'s
// setup_s times as one number — open the saved index, answer one query
// — split into the five things it is made of, at the two lib workloads'
// shapes and in both open modes. read_us is the file into one buffer, or
// the mapping made; decode_us the in-place decode and the structural
// tier; validate_us the content tier (which a mapped open leaves to its
// first query: here it is asked for, so that it has a line of its own);
// query_us the first query, stored vector 0 as in benchmark/lib.go,
// asked a second time; scratch_us what asking it first cost over that —
// what a first query makes for itself: its pooled scratch on a query that
// probes (uqvideo's; the bucket directories are read with the file), the
// scan's word-0 column on one the scan answers (sift's). Each is the best
// of b.N starts, as setup_s is the best of its 51: the host's busy spells
// are longer than a start. -open-n sets the
// corpora's rows (DESIGN.md §14's table is this benchmark at 2·10⁴, 2·10⁵ and 10⁶):
//
//	go test -run '^$' -bench OpenFirstQuery -benchtime 200x . [-args -open-n 200000]
func BenchmarkOpenFirstQuery(b *testing.B) {
	for _, c := range []struct {
		dataset string
		tau     int
	}{{"uqvideo", 8}, {"sift", 16}} {
		b.Run(c.dataset, func(b *testing.B) {
			ds, err := datagen.ByName(c.dataset, *openN, 1)
			if err != nil {
				b.Fatal(err)
			}
			built, err := gph.BuildEngine("gph", ds.Vectors, gph.EngineOptions{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(b.TempDir(), c.dataset+".gph")
			f, err := os.Create(path)
			if err != nil {
				b.Fatal(err)
			}
			if err := built.Save(f); err != nil {
				b.Fatal(err)
			}
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
			probe := ds.Vectors[0]
			want, err := built.Search(probe, c.tau)
			if err != nil {
				b.Fatal(err)
			}
			for _, mode := range []gph.OpenMode{gph.OpenHeap, gph.OpenMMap} {
				b.Run(mode.String(), func(b *testing.B) {
					// Laps, in order; the fourth is the whole first query until
					// the report takes the fifth, the same query again, off it.
					phases := []string{"read_us", "decode_us", "validate_us", "scratch_us", "query_us"}
					best := make([]time.Duration, len(phases))
					for i := 0; i < b.N; i++ {
						var m *mmapio.Mapping
						var data []byte
						var took []time.Duration
						mark := time.Now()
						lap := func() {
							now := time.Now()
							took = append(took, now.Sub(mark))
							mark = now
						}
						if mode == gph.OpenMMap {
							if m, err = mmapio.Open(path); err != nil {
								b.Fatal(err)
							}
							data = m.Data()
						} else if data, err = os.ReadFile(path); err != nil {
							b.Fatal(err)
						}
						lap()
						e, err := engine.LoadAnyDeferred(binio.NewSource(data))
						if err != nil {
							b.Fatal(err)
						}
						lap()
						if err := engine.Validate(e); err != nil {
							b.Fatal(err)
						}
						lap()
						ids, err := e.Search(probe, c.tau)
						lap()
						if _, err := e.Search(probe, c.tau); err != nil {
							b.Fatal(err)
						}
						lap()
						if err != nil || !slices.Equal(ids, want) {
							b.Fatalf("first query: err=%v, %d ids, the built index finds %d", err, len(ids), len(want))
						}
						if m != nil {
							if err := m.Close(); err != nil {
								b.Fatal(err)
							}
						}
						for p, d := range took {
							if i == 0 || d < best[p] {
								best[p] = d
							}
						}
					}
					best[3] = max(best[3]-best[4], 0)
					for p, name := range phases {
						b.ReportMetric(float64(best[p].Nanoseconds())/1e3, name)
					}
				})
			}
		})
	}
}
