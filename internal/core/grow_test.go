package core

import (
	"math/rand"
	"testing"

	"gph/internal/bitvec"
	"gph/internal/engine"
)

// TestSearchGrowMatchesLinearScan: the incremental grower must agree
// with the full-sort ground truth for every k, including k larger
// than any radius round can satisfy without degenerating to a scan.
func TestSearchGrowMatchesLinearScan(t *testing.T) {
	ix, data := knnTestIndex(t, 4000, 11)
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 6; trial++ {
		q := data[rng.Intn(len(data))].Clone()
		for f := 0; f < trial*3; f++ {
			q.Flip(rng.Intn(64))
		}
		for _, k := range []int{1, 3, 10, 100, len(data), len(data) + 50} {
			got, gs, err := ix.SearchGrow(q, k)
			if err != nil {
				t.Fatal(err)
			}
			want := linearKNN(data, q, k)
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: %d neighbors, want %d (stats %+v)", trial, k, len(got), len(want), gs)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d k=%d: neighbor %d = %+v, want %+v (stats %+v)", trial, k, i, got[i], want[i], gs)
				}
			}
			if gs.Radii < 1 {
				t.Fatalf("trial %d k=%d: no radius rounds recorded: %+v", trial, k, gs)
			}
			if !gs.Scanned && gs.FinalTau < want[len(want)-1].Distance {
				t.Fatalf("trial %d k=%d: stopped at tau %d below the kth distance %d without scanning",
					trial, k, gs.FinalTau, want[len(want)-1].Distance)
			}
			if gs.Scanned && gs.Candidates != len(data) {
				t.Fatalf("trial %d k=%d: scan fallback ranked %d candidates, want %d", trial, k, gs.Candidates, len(data))
			}
		}
	}
}

// TestSearchGrowEdgeCases pins the contract at the boundaries: k
// exceeding n clamps, and invalid queries (k<=0, wrong dims) return
// the canonical engine errors just like SearchKNN.
func TestSearchGrowEdgeCases(t *testing.T) {
	ix, data := knnTestIndex(t, 50, 13)
	if _, _, err := ix.SearchGrow(data[0], 0); err == nil {
		t.Error("k=0 accepted")
	}
	out, _, err := ix.SearchGrow(data[0], len(data)*2)
	if err != nil || len(out) != len(data) {
		t.Fatalf("k>n: %d neighbors, err=%v; want %d", len(out), err, len(data))
	}
	if _, _, err := ix.SearchGrow(bitvec.New(65), 3); err == nil {
		t.Error("dim mismatch accepted")
	}
	if _, _, err := ix.SearchGrow(data[0], -1); err == nil {
		t.Error("negative k accepted")
	}
}

// TestGrowKNNDelegates: the generic helper must take the incremental
// path for engines that implement GrowSearcher and still produce the
// exact answer.
func TestGrowKNNDelegates(t *testing.T) {
	ix, data := knnTestIndex(t, 4000, 17)
	if _, ok := engine.Engine(ix).(engine.GrowSearcher); !ok {
		t.Fatal("core.Index does not implement engine.GrowSearcher")
	}
	q := data[7]
	got, err := engine.GrowKNN(ix, q, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := linearKNN(data, q, 9)
	if len(got) != len(want) {
		t.Fatalf("%d neighbors, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("neighbor %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
