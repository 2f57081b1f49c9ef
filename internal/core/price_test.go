package core

import (
	"flag"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"gph/internal/alloc"
	"gph/internal/bitvec"
	"gph/internal/cpu"
	"gph/internal/dataset"
	"gph/internal/hamming"
	"gph/internal/invindex"
	"gph/internal/verify"
)

// BenchmarkPlanPrices measures the price list of allocate.go on the
// regression benchmark's two corpora (n = 20 000; sift-like rows are
// two words, uqvideo-like four). Every line reports ns/item and, against
// the corpus's scanned key measured first, steps/item — the unit the
// constants are written in:
//
//	scanned-key        one key of a partition's arena compared (the unit)
//	probed-signature   engine.ProbePrice: one signature of a ball walked and looked up
//	probed-signature-bitmap  one signature of a ball walked and its posting count read by bit test and rank
//	histogram          one key of the widest partition in its CN row's histogram pass (scanRow), count read and binned
//	histogram-bitmap   the same over the partition a corpus keeps as a bitmap, if it keeps one
//	candidate          engine.CandidatePrice: one posting decoded into the candidate set, fetched and verified
//	candidate-selective  the same as queries meet it where τ < m (uqvideo's τ = 8): generate and FilterWithin from each of 400 queries' own thresholds, ns a posting and ns a candidate of the best pass
//	scan-sparse        ScanCost(τ)/n where τ leaves few word-0 survivors: AppendWithin reads the column
//	scan-dense         ScanCost(τ)/n where it does not: AppendWithin reads the rows
//	scan-…-1M          the same over 10⁶ rows (the corpus tiled 50 times), read from memory
//	dp-cell            dpCellPrice: alloc.AllocateScratch, per cell of a query's CN table
//	verdict-free       ns a query: allocate over a pooled scratch where the plan floor answers (its early exit)
//	allocate-selective ns a query: allocate from bind to verdict where τ < m (uqvideo's τ = 8), 400 queries in turn, a fresh binding each
//	query-cycled       ns a query: Search of the 64 queries in turn
//	query-repeated     ns a query: Search of each query right after the same query
//
// The last two differ by what a query pays for the index bytes the
// queries before it did not leave in cache: on uqvideo, the cache-miss
// share of a selective query.
//
// probed-signature walks one ball of the widest partition again and
// again, so the directory and keys it reads stay in cache, the setting
// BenchmarkFrozenProbeVsScan (internal/invindex) measured the constant
// in. probed-signature-spread is the same step as queries meet it: the
// radius-1 ball of every partition for 64 queries in turn, most lookups
// reading a bucket no recent one touched. It is not on the price list; it
// is there so the distance between the two stays in sight. Nor is
// probed-signature-bitmap, the radius-2 ball of the partition a corpus
// keeps as a bitmap, if it keeps one (sift-like's 13 bits), walked as
// extendRow walks it: a posting count read a signature, no list decoded
// — the partition holds most of its key space, so nearly every
// signature is held, and decoding its lists would bury the probe. A
// bitmap probe is billed at engine.ProbePrice like a hash probe; the
// line is what a price of its own would be read from.
func BenchmarkPlanPrices(b *testing.B) {
	var stepNs float64 // the corpus's scanned-key line, which runs first
	report := func(b *testing.B, items int) float64 {
		ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(items)
		b.ReportMetric(ns, "ns/item")
		if stepNs > 0 {
			b.ReportMetric(ns/stepNs, "steps/item")
		}
		return ns
	}
	for _, c := range []struct {
		name string
		ds   *dataset.Dataset
		tau  int
	}{
		{"sift", dataset.SIFTLike(20000, 1), 16},
		{"uqvideo", dataset.UQVideoLike(20000, 1), 8},
	} {
		ix, err := Build(c.ds.Vectors, Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		queries := dataset.PerturbQueries(c.ds, 64, 4, 7)
		params := alloc.Params{Tau: c.tau, Widths: ix.parts.Widths(), EnumBudget: ix.opts.EnumBudget}
		s := ix.getScratch()
		ix.bindQuery(queries[0], s)
		// The widest partition is the one whose balls are probed, the
		// narrowest the one whose keys are scanned and mostly match.
		wide, narrow := 0, 0
		for i, w := range s.widths {
			if w > s.widths[wide] {
				wide = i
			}
			if w < s.widths[narrow] {
				narrow = i
			}
		}
		b.Run(c.name+"/scanned-key", func(b *testing.B) {
			for range b.N {
				ix.scanKeys(wide, 0, s)
				s.cand.Reset()
			}
			stepNs = 0 // the unit reports no ratio to itself
			stepNs = report(b, ix.inv[wide].NumKeys())
		})
		b.Run(c.name+"/probed-signature", func(b *testing.B) {
			s.sigs = 0
			for range b.N {
				ix.probeBall(wide, 2, s)
				s.cand.Reset()
			}
			report(b, s.sigs/b.N)
		})
		if bm := slices.IndexFunc(ix.inv, (*invindex.Frozen).Bitmap); bm >= 0 {
			b.Run(c.name+"/probed-signature-bitmap", func(b *testing.B) {
				sigs, sum := 0, 0
				for range b.N {
					ball := hamming.NewWordBall(s.projs[bm].Words()[0], s.widths[bm], 2)
					for ok := true; ok; ok = ball.Next() {
						sum += ix.inv[bm].PostingLenWord(ball.Sig)
						sigs++
					}
				}
				report(b, sigs/b.N)
				if sum == 0 {
					b.Fatal("the ball holds no key")
				}
			})
		}
		// The histogram pass extendRow's scan branch makes, a query's
		// projection binned over every key of the partition: on the widest
		// partition, and on the bitmap where there is one.
		histPass := func(name string, i int) {
			b.Run(c.name+"/"+name, func(b *testing.B) {
				var hist []int64
				row := make([]int64, c.tau+2)
				for range b.N {
					hist = scanRow(ix.inv[i], s.projs[i].Words(), hist, row)
				}
				report(b, ix.inv[i].NumKeys())
			})
		}
		histPass("histogram", wide)
		if bm := slices.IndexFunc(ix.inv, (*invindex.Frozen).Bitmap); bm >= 0 {
			histPass("histogram-bitmap", bm)
		}
		b.Run(c.name+"/probed-signature-spread", func(b *testing.B) {
			spread := ix.getScratch()
			for range b.N {
				for _, q := range queries {
					spread.q = q
					ix.bindQuery(q, spread)
					for i := range spread.widths {
						ix.probeBall(i, 1, spread)
					}
					spread.cand.Reset()
				}
			}
			report(b, spread.sigs/b.N)
			ix.putScratch(spread)
		})
		b.Run(c.name+"/candidate", func(b *testing.B) {
			// Radius = width: every key matches and every posting is
			// decoded, so the pass over the keys is a small share.
			s.sumPost = 0
			for range b.N {
				ix.scanKeys(narrow, s.widths[narrow], s)
				cands := s.cand.IDs
				s.cand.Reset()
				ix.codes.FilterWithin(queries[0], c.tau, cands)
			}
			report(b, int(s.sumPost)/b.N)
		})
		// Either side of the hand-off the sample predicts (the largest τ at
		// the sparse price), on the index's arena and on 50 copies of it.
		dense := 0
		for ix.ScanCost(dense+1) == ix.ScanCost(0) {
			dense++
		}
		big, err := verify.Wrap(50*ix.count, ix.dims, slices.Repeat(slices.Concat(wordsOf(c.ds.Vectors)...), 50))
		if err != nil {
			b.Fatal(err)
		}
		for _, scan := range []struct {
			name  string
			codes *verify.Codes
			tau   int
		}{
			{"scan-sparse", ix.codes, dense - 6}, {"scan-dense", ix.codes, dense + 10},
			{"scan-sparse-1M", big, dense - 6}, {"scan-dense-1M", big, dense + 10},
		} {
			b.Run(c.name+"/"+scan.name, func(b *testing.B) {
				var out []int32
				for range b.N {
					out = scan.codes.AppendWithin(queries[0], scan.tau, out[:0])
				}
				report(b, scan.codes.Len())
				b.ReportMetric(float64(scan.codes.ScanSteps(scan.tau))/float64(scan.codes.Len()), "priced-steps/item")
			})
		}
		b.Run(c.name+"/dp-cell", func(b *testing.B) {
			tables := make([]alloc.Table, len(queries))
			for i, q := range queries {
				tables[i] = ix.EstimateTable(q, c.tau)
			}
			b.ResetTimer()
			for range b.N {
				for _, table := range tables {
					alloc.AllocateScratch(table, params, &s.dp)
				}
			}
			report(b, len(tables)*len(s.widths)*(c.tau+2))
		})
		ix.putScratch(s)
		b.Run(c.name+"/verdict-free", func(b *testing.B) {
			tau := freeFrom(ix)
			for range b.N {
				for _, q := range queries {
					s := ix.getScratch()
					_, price := ix.allocate(q, tau, ix.ScanCost(tau), s)
					ix.putScratch(s)
					if price <= ix.ScanCost(tau) {
						b.Fatalf("tau=%d: priced at %d", tau, price)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(queries)), "ns/query")
		})

		if c.tau < ix.parts.NumParts() {
			// candidate's keys hold no id twice and its rows lie far from the
			// query, so every branch on its way is predicted; here a third of
			// the postings are ids seen already and the rows are near ones.
			// Each pass is the 400 queries lib_selective replays, only
			// generation and verification timed, and the best pass is kept:
			// over 64 queries a pass's branches are few enough for the
			// predictor to learn across passes, and the branchy and the
			// branch-free loops read alike there.
			b.Run(c.name+"/candidate-selective", func(b *testing.B) {
				many := dataset.PerturbQueries(c.ds, 400, 4, 7)
				clock := clockReading()
				best := time.Duration(math.MaxInt64)
				var posts, cands int64
				for range b.N {
					var took time.Duration
					posts, cands = 0, 0
					for i, q := range many {
						s := ix.getScratch()
						res, price := ix.allocate(q, c.tau, ix.ScanCost(c.tau), s)
						if price > ix.ScanCost(c.tau) {
							b.Fatalf("query %d: scanned at %d", i, price)
						}
						t0 := time.Now()
						if err := ix.generate(res.Thresholds, res.EffectiveBudget, s); err != nil {
							b.Fatal(err)
						}
						ids := s.cand.IDs
						s.cand.Reset()
						ix.codes.FilterWithin(q, c.tau, ids)
						took += time.Since(t0) - clock
						posts, cands = posts+s.sumPost, cands+int64(len(ids))
						ix.putScratch(s)
					}
					best = min(best, took)
				}
				b.ReportMetric(float64(best.Nanoseconds())/float64(posts), "ns/posting")
				b.ReportMetric(float64(best.Nanoseconds())/float64(cands), "ns/candidate")
			})
			b.Run(c.name+"/allocate-selective", func(b *testing.B) {
				many := dataset.PerturbQueries(c.ds, 400, 4, 7)
				reportStage(b, len(many), func(i int) time.Duration {
					s := ix.getScratch()
					t0 := time.Now()
					_, price := ix.allocate(many[i], c.tau, ix.ScanCost(c.tau), s)
					d := time.Since(t0)
					ix.putScratch(s)
					if price > ix.ScanCost(c.tau) {
						b.Fatalf("query %d: scanned at %d", i, price)
					}
					return d
				})
			})
		}

		// Where a query's time goes before verification, stage by stage.
		// Every stage runs behind the stages a query runs before it, so it
		// meets the caches as it would there, and only it is timed.
		for _, stage := range []struct {
			name string
			run  func(b *testing.B, q bitvec.Vector, s *searchScratch) time.Duration // < 0: the query has no such stage
		}{
			{"bind", func(_ *testing.B, q bitvec.Vector, s *searchScratch) time.Duration {
				t0 := time.Now()
				ix.bindQuery(q, s)
				return time.Since(t0)
			}},
			{"row-starts", func(_ *testing.B, q bitvec.Vector, s *searchScratch) time.Duration {
				ix.bindQuery(q, s)
				t0 := time.Now()
				ix.startRows(c.tau, nil, s)
				return time.Since(t0)
			}},
			{"dp-round", func(_ *testing.B, q bitvec.Vector, s *searchScratch) time.Duration {
				ix.bindQuery(q, s)
				ix.startTable(c.tau, s)
				t0 := time.Now()
				alloc.AllocateScratch(s.table, params, &s.dp)
				return time.Since(t0)
			}},
			{"generate", func(b *testing.B, q bitvec.Vector, s *searchScratch) time.Duration {
				res, price := ix.allocate(q, c.tau, ix.ScanCost(c.tau), s)
				if price > ix.ScanCost(c.tau) {
					return -1 // scanned: nothing is generated
				}
				t0 := time.Now()
				if err := ix.generate(res.Thresholds, res.EffectiveBudget, s); err != nil {
					b.Fatal(err)
				}
				return time.Since(t0)
			}},
		} {
			b.Run(c.name+"/"+stage.name, func(b *testing.B) {
				reportStage(b, len(queries), func(i int) time.Duration {
					s := ix.getScratch()
					d := stage.run(b, queries[i], s)
					ix.putScratch(s)
					return d
				})
			})
		}
		for _, order := range []string{"query-cycled", "query-repeated"} {
			b.Run(c.name+"/"+order, func(b *testing.B) {
				reportStage(b, len(queries), func(i int) time.Duration {
					if order == "query-repeated" {
						_, _ = ix.Search(queries[i], c.tau) // the timed call checks the same query
					}
					t0 := time.Now()
					_, err := ix.Search(queries[i], c.tau)
					d := time.Since(t0)
					if err != nil {
						b.Fatal(err)
					}
					return d
				})
			})
		}
	}
}

// crossoverN sizes BenchmarkCrossover's corpora; DESIGN.md §1's table is
// this benchmark at 20 000 and at 100 000 (-args -crossover-n 100000).
var crossoverN = flag.Int("crossover-n", 20000, "rows of BenchmarkCrossover's corpora")

// BenchmarkCrossover is the sweep DESIGN.md §1 ("Where the crossover
// lands") tabulates: on the regression benchmark's two corpora, τ across
// the guard's crossover, what a query costs by Search on each route —
// the index forced, the scan forced (cpu.Force) and the guard's own
// choice — the median query's best of b.N passes over 400 perturbed
// queries, the way benchmark/ keeps a latency, and the share of queries
// each scanned. The search line's regret is Search ÷ min(index, scan):
// 1 where the guard picked the faster route for the median query. Under
// the forced index a query is scanned only where no plan fits the
// enumeration budget.
//
//	go test -run '^$' -bench Crossover -benchtime 200x ./internal/core [-args -crossover-n 100000]
//
// The four cells a change to the index path reports at 10⁶ — sift-like
// τ = 12 and 14, uqvideo-like τ = 28 and 32, where the forced index and
// the guard's regret moved before — without the rest of the grid:
//
//	go test -run '^$' -bench 'Crossover/sift/τ=1[24]/|Crossover/uqvideo/τ=(28|32)/' -benchtime 10x ./internal/core -args -crossover-n 1000000
//
// (The alternation is at the top: -bench matches each /-separated part
// of the pattern to one level of the name, so a part may not span two.)
func BenchmarkCrossover(b *testing.B) {
	for _, c := range []struct {
		name string
		ds   *dataset.Dataset
		taus []int
	}{
		{"sift", dataset.SIFTLike(*crossoverN, 1), []int{6, 8, 9, 10, 12, 14, 16, 18, 24}},
		{"uqvideo", dataset.UQVideoLike(*crossoverN, 1), []int{8, 12, 14, 16, 20, 22, 24, 28, 32, 36}},
	} {
		ix, err := Build(c.ds.Vectors, Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		queries := dataset.PerturbQueries(c.ds, 400, 4, 7)
		for _, tau := range c.taus {
			var median [3]float64 // ns a query by route, once its line has run
			for _, route := range []cpu.Route{cpu.RouteIndex, cpu.RouteScan, cpu.RouteAdaptive} {
				line := route.String()
				if route == cpu.RouteAdaptive {
					line = "search"
				}
				b.Run(fmt.Sprintf("%s/τ=%d/%s", c.name, tau, line), func(b *testing.B) {
					defer cpu.Force(cpu.Setting{Route: route})()
					scanned := 0
					for _, q := range queries {
						if _, st, err := ix.SearchStats(q, tau); err != nil {
							b.Fatal(err)
						} else if st.Scanned {
							scanned++
						}
					}
					median[route] = reportStage(b, len(queries), func(i int) time.Duration {
						t0 := time.Now()
						if _, err := ix.Search(queries[i], tau); err != nil {
							b.Fatal(err)
						}
						return time.Since(t0)
					})
					b.ReportMetric(100*float64(scanned)/float64(len(queries)), "scanned-%")
					if best := min(median[cpu.RouteIndex], median[cpu.RouteScan]); route == cpu.RouteAdaptive && best > 0 {
						b.ReportMetric(median[route]/best, "regret")
					}
				})
			}
		}
	}
}

// BenchmarkIndexBytes reports where the index's bytes are on
// BenchmarkCrossover's corpora at its size — key arenas and bitmaps,
// posting arenas, entries (refs and counts), directories and rank
// arrays, and SizeBytes — and logs each partition's width and layout:
// the table of DESIGN.md §1 ("What a narrow partition costs"). A build
// is the op.
//
//	go test -run '^$' -bench IndexBytes -benchtime 1x ./internal/core [-args -crossover-n 1000000]
func BenchmarkIndexBytes(b *testing.B) {
	for _, c := range []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"sift", dataset.SIFTLike(*crossoverN, 1)},
		{"uqvideo", dataset.UQVideoLike(*crossoverN, 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			var ix *Index
			for range b.N {
				var err error
				if ix, err = Build(c.ds.Vectors, Options{Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
			var layouts []string
			for i, w := range ix.parts.Widths() {
				layout := "hash"
				if ix.inv[i].Bitmap() {
					layout = "bitmap"
				}
				layouts = append(layouts, fmt.Sprintf("%d %s", w, layout))
			}
			b.Logf("n=%d partitions: %v", ix.count, layouts)
			keys, posts, entries, dirs := arenaBreakdown(ix)
			for _, m := range []struct {
				bytes int64
				unit  string
			}{{keys, "key-B"}, {posts, "post-B"}, {entries, "entry-B"}, {dirs, "dir-B"}, {ix.SizeBytes(), "index-B"}} {
				b.ReportMetric(float64(m.bytes), m.unit)
			}
		})
	}
}

// wordsOf returns the word slices of data, row by row.
func wordsOf(data []bitvec.Vector) [][]uint64 {
	out := make([][]uint64, len(data))
	for i, v := range data {
		out[i] = v.Words()
	}
	return out
}

// clockReading returns the best of 1 000 readings of a time.Now /
// time.Since pair with nothing between: what the clock itself adds to a
// span it times.
func clockReading() time.Duration {
	clock := time.Duration(math.MaxInt64)
	for range 1000 {
		t0 := time.Now()
		if d := time.Since(t0); d < clock {
			clock = d
		}
	}
	return clock
}

// reportStage reports what one stage of a query costs, in ns a query, the
// way benchmark/ keeps a latency: b.N passes over the queries, the best
// reading of each query kept — what the stage costs when nothing
// interrupts it — and the median query reported, less the clock's own
// best reading, which it also returns. Queries that do not have the stage
// (a negative duration) are left out; if none has it, so is the line.
func reportStage(b *testing.B, queries int, run func(query int) time.Duration) float64 {
	clock := clockReading()
	best := make([]time.Duration, queries)
	for i := range best {
		best[i] = -1
	}
	for range b.N {
		for i := range best {
			if d := run(i); d >= 0 && (best[i] < 0 || d < best[i]) {
				best[i] = d
			}
		}
	}
	best = slices.DeleteFunc(best, func(d time.Duration) bool { return d < 0 })
	if len(best) == 0 {
		b.Skip("no query has this stage")
	}
	slices.Sort(best)
	ns := float64((best[len(best)/2] - clock).Nanoseconds())
	b.ReportMetric(ns, "ns/query")
	return ns
}
