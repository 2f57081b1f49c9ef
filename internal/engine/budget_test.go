package engine_test

import (
	"math"
	"testing"

	"gph/internal/dataset"
	"gph/internal/engine"
	"gph/internal/verify"
)

// TestBudget: a budget opens at the scan's price, holds through the
// charge that brings it to zero, is spent by the next, stays spent, and
// a ball too large to count overdraws it without wrapping around.
func TestBudget(t *testing.T) {
	codes := verify.Pack(dataset.Synthetic(6000, 64, 0.3, 1).Vectors)
	limit := codes.ScanSteps(3)
	if limit < engine.ProbePrice+engine.CandidatePrice {
		t.Fatalf("a scan of 6 000 rows priced at %d steps", limit)
	}
	b := engine.ScanBudget(codes, 3)
	probes := uint64(limit / engine.ProbePrice)
	postings := int(limit-int64(probes)*engine.ProbePrice) / engine.CandidatePrice
	if !b.Probes(probes) || !b.Postings(postings) || b.Spent() {
		t.Fatalf("%d probes and %d postings overdrew a budget of %d", probes, postings, limit)
	}
	if b.Postings(1) || !b.Spent() || b.Probes(0) || b.Postings(0) {
		t.Fatal("a charge past the limit left the budget holding")
	}
	for _, ball := range []uint64{probes + 1, math.MaxUint64 / engine.ProbePrice, math.MaxUint64} {
		if b := engine.ScanBudget(codes, 3); b.Probes(ball) || !b.Spent() {
			t.Fatalf("a ball of %d signatures fits a budget of %d", ball, limit)
		}
	}
}
