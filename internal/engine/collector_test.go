package engine_test

import (
	"slices"
	"testing"

	"gph/internal/bitvec"
	"gph/internal/engine"
	"gph/internal/verify"
)

// TestFinishEmptiesTheSet: FinishVerifiedCodes hands the bitmap back all
// zero however verification compacts the candidates — here a far row
// collected before a near one in another word, which the compaction
// overwrites, so that a Reset after it could not find the far row's bit.
func TestFinishEmptiesTheSet(t *testing.T) {
	const n = 200
	rows := make([]bitvec.Vector, n)
	for i := range rows {
		rows[i] = bitvec.New(64)
	}
	for d := range 32 {
		rows[7].Set(d) // far: 32 bits from the query
	}
	codes := verify.Pack(rows)
	var c engine.Collector
	c.Reset(n)
	for _, id := range []int32{7, 150, 7, 150} {
		c.Set.Add(id)
	}
	if got := c.FinishVerifiedCodes(bitvec.New(64), 4, codes); !slices.Equal(got, []int32{150}) {
		t.Fatalf("kept %v, want [150]", got)
	}
	if len(c.Set.IDs) != 0 || slices.ContainsFunc(c.Set.Seen, func(w uint64) bool { return w != 0 }) {
		t.Fatalf("the set holds %v over bitmap %x after FinishVerifiedCodes", c.Set.IDs, c.Set.Seen)
	}
}
