package mih

import (
	"testing"

	"gph/internal/dataset"
	"gph/internal/engine/enginetest"
)

// BenchmarkSearchStats measures the per-query cost of the MIH probe
// path; run with -benchmem to see the effect of the pooled scratch.
func BenchmarkSearchStats(b *testing.B) {
	ds := dataset.GISTLike(10000, 42)
	ix, err := Build(ds.Vectors, Options{NumPartitions: 8})
	if err != nil {
		b.Fatal(err)
	}
	queries := dataset.PerturbQueries(ds, 16, 4, 43)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.SearchStats(queries[i%len(queries)], 12); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScanGuardPerPartition pins the budget semantics: EnumBudget
// caps each partition's ball individually, so a query whose per-
// partition balls all fit must enumerate (not scan) even when their
// sum exceeds the budget, and must scan — before it probes anything —
// once any single ball overflows it. (20 000 rows, so that the scan's
// price is not what stops either query.)
func TestScanGuardPerPartition(t *testing.T) {
	ds := dataset.Synthetic(20000, 32, 0.3, 5)
	build := func(budget int64) *Index {
		ix, err := Build(ds.Vectors, Options{NumPartitions: 2, EnumBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	// tau=3, m=2 → sub=1; ball(16, 1) = 17 signatures per partition.
	const perPartBall = 17
	enginetest.OnIndex(t, build(perPartBall), ds.Vectors[0], 3)
	enginetest.FreeScan(t, build(perPartBall-1), ds.Vectors[0], 3)
}
