package core

import (
	"testing"

	"gph/internal/alloc"
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
			params := alloc.Params{Tau: c.tau, Widths: s.widths, EnumBudget: ix.opts.EnumBudget}
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
	}
}
