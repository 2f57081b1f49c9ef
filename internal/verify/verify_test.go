package verify

import (
	"math/rand"
	"slices"
	"testing"

	"gph/internal/bitvec"
)

// randVector draws a vector of the given dimensionality; density
// skews the bit distribution so distances spread across the range.
func randVector(rng *rand.Rand, dims int, density float64) bitvec.Vector {
	v := bitvec.New(dims)
	for i := 0; i < dims; i++ {
		if rng.Float64() < density {
			v.Set(i)
		}
	}
	return v
}

// adversarialTail returns vectors whose set bits concentrate in the
// final partial word: the patterns that break kernels which forget
// the tail mask or read a full word past dims.
func adversarialTail(dims int) []bitvec.Vector {
	full := bitvec.New(dims)
	for i := 0; i < dims; i++ {
		full.Set(i)
	}
	lastWord := bitvec.New(dims)
	for i := (dims / bitvec.WordBits) * bitvec.WordBits; i < dims; i++ {
		lastWord.Set(i)
	}
	lastBit := bitvec.New(dims)
	lastBit.Set(dims - 1)
	return []bitvec.Vector{bitvec.New(dims), full, lastWord, lastBit}
}

// testDims covers every kernel specialization (1, 2, 4 words), the
// generic stride path, and non-multiples of 64 on both sides of each
// word boundary.
var testDims = []int{1, 7, 63, 64, 65, 100, 127, 128, 129, 192, 255, 256, 257, 320, 881}

// edgeTaus returns the boundary thresholds the kernels must agree on
// with HammingWithin: below zero, zero, one, and both sides of dims.
func edgeTaus(dims int) []int {
	return []int{-2, -1, 0, 1, dims - 1, dims, dims + 1, dims + 64}
}

// buildCollection packs a random collection (plus the adversarial
// tail patterns) and returns it with the original vectors.
func buildCollection(rng *rand.Rand, dims, n int) ([]bitvec.Vector, *Codes) {
	data := adversarialTail(dims)
	densities := []float64{0.02, 0.25, 0.5, 0.75, 0.98}
	for len(data) < n {
		data = append(data, randVector(rng, dims, densities[len(data)%len(densities)]))
	}
	return data, Pack(data)
}

// TestFilterWithinDifferential is the core oracle test: for every
// dims, every edge and random tau, every batch size and block offset,
// the batch filter must keep exactly the ids the scalar
// bitvec.HammingWithin reference keeps, in the same order.
func TestFilterWithinDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	batchSizes := []int{1, 2, 3, 4, 5, 7, 8, 16, 63, 64, 65, 128}
	offsets := []int{0, 1, 2, 3, 5, 17}
	for _, dims := range testDims {
		data, codes := buildCollection(rng, dims, 160)
		queries := append(adversarialTail(dims), randVector(rng, dims, 0.5), randVector(rng, dims, 0.1))
		taus := append(edgeTaus(dims), rng.Intn(dims+1), rng.Intn(dims+1))
		for _, q := range queries {
			for _, tau := range taus {
				for _, bs := range batchSizes {
					for _, off := range offsets {
						if off+bs > len(data) {
							continue
						}
						ids := make([]int32, bs)
						for j := range ids {
							ids[j] = int32(off + j)
						}
						var want []int32
						for _, id := range ids {
							if q.HammingWithin(data[id], tau) {
								want = append(want, id)
							}
						}
						got := codes.FilterWithin(q, tau, ids)
						if !equalIDs(got, want) {
							t.Fatalf("dims=%d tau=%d batch=%d off=%d: got %v want %v", dims, tau, bs, off, got, want)
						}
					}
				}
			}
		}
	}
}

// TestFilterKernelsMatchMapReference holds each width's filter loop —
// w = 1, 2, 4, and the generic loop at 3 and 14 words — to a map of
// every row's distance, called directly so that the boundary taus
// FilterWithin answers without a kernel (−1, dims) reach it too. The
// rows sit at every distance from the query near the thresholds, the
// candidates come in random order and each twice, and the kept ids must
// be the map's, in order: a loop that stores every candidate and
// advances by d ≤ τ must never keep a far row, drop a near one or lose
// a duplicate.
func TestFilterKernelsMatchMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, dims := range []int{64, 128, 256, 192, 881} {
		q := randVector(rng, dims, 0.5)
		var data []bitvec.Vector
		for _, d := range []int{0, 1, 2, 3, 5, 8, 13, dims/2 - 1, dims / 2, dims/2 + 1, dims - 2, dims - 1, dims} {
			for range 3 {
				v := q.Clone()
				for _, i := range rng.Perm(dims)[:d] {
					v.Flip(i)
				}
				data = append(data, v)
			}
		}
		codes := Pack(data)
		dist := map[int32]int{}
		for id, v := range data {
			dist[int32(id)] = q.Hamming(v)
		}
		var cands []int32
		for _, id := range slices.Concat(rng.Perm(len(data)), rng.Perm(len(data))) {
			cands = append(cands, int32(id))
		}
		for _, tau := range []int{-1, 0, 1, 8, dims / 2, dims - 1, dims} {
			var want []int32
			for _, id := range cands {
				if dist[id] <= tau {
					want = append(want, id)
				}
			}
			if got := filterPortable(codes, q.Words(), tau, slices.Clone(cands)); !equalIDs(got, want) {
				t.Fatalf("dims=%d tau=%d: the w=%d loop kept %v, the map %v", dims, tau, codes.w, got, want)
			}
			if got := codes.FilterWithin(q, tau, slices.Clone(cands)); !equalIDs(got, want) {
				t.Fatalf("dims=%d tau=%d: FilterWithin kept %v, the map %v", dims, tau, got, want)
			}
		}
	}
}

// TestAppendWithinMatchesScan pins the full-scan kernel against the
// scalar scan at the same taus.
func TestAppendWithinMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range testDims {
		data, codes := buildCollection(rng, dims, 120)
		for _, q := range append(adversarialTail(dims), randVector(rng, dims, 0.5)) {
			for _, tau := range edgeTaus(dims) {
				var want []int32
				for id, v := range data {
					if q.HammingWithin(v, tau) {
						want = append(want, int32(id))
					}
				}
				got := codes.AppendWithin(q, tau, nil)
				if !equalIDs(got, want) {
					t.Fatalf("dims=%d tau=%d: scan got %v want %v", dims, tau, got, want)
				}
			}
		}
	}
}

// TestDistanceKernelsMatchHamming pins the reference path and both
// block distance kernels against bitvec.Hamming on every row.
func TestDistanceKernelsMatchHamming(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, dims := range testDims {
		data, codes := buildCollection(rng, dims, 90)
		q := randVector(rng, dims, 0.4)
		ids := make([]int32, len(data))
		want := make([]int32, len(data))
		for id, v := range data {
			ids[id] = int32(id)
			want[id] = int32(q.Hamming(v))
			if got := codes.Distance(q, int32(id)); got != int(want[id]) {
				t.Fatalf("dims=%d id=%d: Distance=%d want %d", dims, id, got, want[id])
			}
		}
		gather := make([]int32, len(data))
		codes.DistancesInto(q, ids, gather)
		seq := make([]int32, len(data))
		codes.DistancesSeqInto(q, 0, seq)
		for id := range data {
			if gather[id] != want[id] || seq[id] != want[id] {
				t.Fatalf("dims=%d id=%d: gather=%d seq=%d want %d", dims, id, gather[id], seq[id], want[id])
			}
		}
		// Block boundaries: a mid-collection base must index rows, not words.
		part := make([]int32, 10)
		codes.DistancesSeqInto(q, 37, part)
		for j := range part {
			if part[j] != want[37+j] {
				t.Fatalf("dims=%d: seq base=37 j=%d: %d want %d", dims, j, part[j], want[37+j])
			}
		}
	}
}

// TestBoundaryTausPinned spells out the t < 0 and t >= dims contract
// shared by HammingWithin and the kernels (the satellite audit).
func TestBoundaryTausPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, dims := range []int{1, 64, 100, 129} {
		data, codes := buildCollection(rng, dims, 40)
		q := randVector(rng, dims, 0.5)
		all := make([]int32, len(data))
		for i := range all {
			all[i] = int32(i)
		}
		if got := codes.FilterWithin(q, -1, append([]int32(nil), all...)); len(got) != 0 {
			t.Fatalf("dims=%d: tau=-1 kept %d ids, want 0", dims, len(got))
		}
		if got := codes.AppendWithin(q, -1, nil); len(got) != 0 {
			t.Fatalf("dims=%d: tau=-1 scan kept %d ids, want 0", dims, len(got))
		}
		for _, tau := range []int{dims, dims + 1} {
			if got := codes.FilterWithin(q, tau, append([]int32(nil), all...)); len(got) != len(data) {
				t.Fatalf("dims=%d tau=%d: kept %d ids, want all %d", dims, tau, len(got), len(data))
			}
			if got := codes.AppendWithin(q, tau, nil); len(got) != len(data) {
				t.Fatalf("dims=%d tau=%d: scan kept %d ids, want all %d", dims, tau, len(got), len(data))
			}
		}
		for id, v := range data {
			for _, tau := range edgeTaus(dims) {
				want := q.HammingWithin(v, tau)
				got := len(codes.FilterWithin(q, tau, []int32{int32(id)})) == 1
				if got != want {
					t.Fatalf("dims=%d tau=%d id=%d: kernel=%v HammingWithin=%v", dims, tau, id, got, want)
				}
			}
		}
	}
}

// TestFilterWithinInPlace verifies the filter never allocates and
// returns a prefix of the input slice.
func TestFilterWithinInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	data, codes := buildCollection(rng, 128, 64)
	q := randVector(rng, 128, 0.5)
	ids := make([]int32, len(data))
	for i := range ids {
		ids[i] = int32(i)
	}
	allocs := testing.AllocsPerRun(50, func() {
		for i := range ids {
			ids[i] = int32(i)
		}
		got := codes.FilterWithin(q, 40, ids)
		if cap(got) != cap(ids) {
			t.Fatalf("filter returned a new slice")
		}
	})
	if allocs != 0 {
		t.Fatalf("FilterWithin allocates %v per run, want 0", allocs)
	}
}

// TestPackEmptyAndPanics pins Pack's edge behavior.
func TestPackEmptyAndPanics(t *testing.T) {
	c := Pack(nil)
	if c.Len() != 0 || c.SizeBytes() != 0 {
		t.Fatalf("empty Pack: Len=%d SizeBytes=%d", c.Len(), c.SizeBytes())
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Pack accepted mismatched dims")
		}
	}()
	Pack([]bitvec.Vector{bitvec.New(64), bitvec.New(65)})
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
