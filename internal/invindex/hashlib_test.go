package invindex_test

import (
	"testing"

	"gph/internal/core"
	"gph/internal/dataset"
	"gph/internal/invindex"
	"gph/internal/verify"
)

// TestLibShapesSpreadTheirKeys holds the quotient layout's hash to the
// one it replaced on the regression benchmark's two shapes (n = 20 000,
// Options{Seed: 1}): over every hashed partition of each, the largest
// bucket, and the share of keys a probe for which walks past the first
// two of its bucket, are no worse than 1.1 times the old hash's on the
// same keys. The log has both.
func TestLibShapesSpreadTheirKeys(t *testing.T) {
	for _, c := range []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"lib_selective", dataset.UQVideoLike(20000, 1)},
		{"lib_wide", dataset.SIFTLike(20000, 1)},
	} {
		ix, err := core.Build(c.ds.Vectors, core.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		codes := verify.Pack(c.ds.Vectors)
		var largest, priorLargest int
		var past, priorPast float64
		keys := 0
		for _, part := range ix.Partitioning().Parts {
			if len(part) > 64 {
				continue
			}
			f := invindex.FreezeRows(ix.Len(), 1, len(part), invindex.ProjectRows(codes, part))
			if f.Bitmap() {
				continue
			}
			distinct := map[uint64]bool{}
			for _, x := range invindex.ProjectRows(codes, part) {
				distinct[x] = true
			}
			held := make([]uint64, 0, len(distinct))
			for x := range distinct {
				held = append(held, x)
			}
			l, p := invindex.BucketStats(f)
			pl, pp := invindex.PriorBucketStats(held, f.KeyLen())
			t.Logf("%s: %d bits, %d keys: largest bucket %d (was %d), %.4f of probes walk past two keys (was %.4f)",
				c.name, len(part), len(held), l, pl, p, pp)
			largest, priorLargest = max(largest, l), max(priorLargest, pl)
			past, priorPast = past+p*float64(len(held)), priorPast+pp*float64(len(held))
			keys += len(held)
		}
		past, priorPast = past/float64(keys), priorPast/float64(keys)
		t.Logf("%s: largest bucket %d (was %d), %.4f of probes walk past two keys (was %.4f)", c.name, largest, priorLargest, past, priorPast)
		if float64(largest) > 1.1*float64(priorLargest) || past > 1.1*priorPast {
			t.Errorf("%s: the quotient hash spreads the keys worse than 1.1 times the old one's", c.name)
		}
	}
}
