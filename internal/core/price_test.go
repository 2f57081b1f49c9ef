package core

import (
	"math"
	"slices"
	"testing"
	"time"

	"gph/internal/alloc"
	"gph/internal/bitvec"
	"gph/internal/dataset"
)

// BenchmarkPlanPrices measures the price list of allocate.go on the
// regression benchmark's two corpora (n = 20 000; sift-like rows are
// two words, uqvideo-like four). Every line reports ns/item and, against
// the corpus's scanned key measured first, steps/item — the unit the
// constants are written in:
//
//	scanned-key        one key of a partition's arena compared (the unit)
//	probed-signature   scanElemsPerProbe: one signature of a ball walked and looked up
//	candidate          candidatePrice: one posting decoded into the candidate set, fetched and verified
//	scanned-row        ScanCost, per row: verify.Codes.AppendWithin over the arena
//	dp-cell            dpCellPrice: alloc.AllocateScratch, per cell of a query's CN table
//
// probed-signature walks one ball of the widest partition again and
// again, so the slots it reads stay in cache, which is the setting
// BenchmarkFrozenProbeVsScan (internal/invindex) measured the constant
// in. probed-signature-spread is the same step as queries meet it: the
// radius-1 ball of every partition for 64 queries in turn, most lookups
// reading a slot no recent one touched. It is not on the price list; it
// is there so the distance between the two stays in sight.
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
		b.Run(c.name+"/scanned-row", func(b *testing.B) {
			var out []int32
			for range b.N {
				out = ix.codes.AppendWithin(queries[0], c.tau, out[:0])
			}
			report(b, ix.count)
		})
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
				ix.startRows(c.tau, s)
				return time.Since(t0)
			}},
			{"dp-round", func(_ *testing.B, q bitvec.Vector, s *searchScratch) time.Duration {
				ix.bindQuery(q, s)
				ix.startRows(c.tau, s)
				t0 := time.Now()
				alloc.AllocateScratch(s.table, params, &s.dp)
				return time.Since(t0)
			}},
			{"generate", func(b *testing.B, q bitvec.Vector, s *searchScratch) time.Duration {
				res, price := ix.allocate(q, c.tau, s)
				if price > ix.ScanCost() {
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
	}
}

// reportStage reports what one stage of a query costs, in ns a query, the
// way benchmark/ keeps a latency: b.N passes over the queries, the best
// reading of each query kept — what the stage costs when nothing
// interrupts it — and the median query reported, less the clock's own
// best reading. Queries that do not have the stage (a negative duration)
// are left out; if none has it, so is the line.
func reportStage(b *testing.B, queries int, run func(query int) time.Duration) {
	clock := time.Duration(math.MaxInt64)
	for range 1000 {
		t0 := time.Now()
		if d := time.Since(t0); d < clock {
			clock = d
		}
	}
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
	b.ReportMetric(float64((best[len(best)/2] - clock).Nanoseconds()), "ns/query")
}
