package candest

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gph/internal/bitvec"
)

func randData(rng *rand.Rand, n, dims int, p float64) []bitvec.Vector {
	out := make([]bitvec.Vector, n)
	for i := range out {
		v := bitvec.New(dims)
		for d := 0; d < dims; d++ {
			if rng.Float64() < p {
				v.Set(d)
			}
		}
		out[i] = v
	}
	return out
}

// naiveCN counts data vectors whose projection onto dims is within e
// of q's projection — the definition of CN.
func naiveCN(data []bitvec.Vector, dims []int, q bitvec.Vector, e int) int64 {
	if e < 0 {
		return 0
	}
	qp := q.Project(dims)
	var c int64
	for _, v := range data {
		if v.Project(dims).Hamming(qp) <= e {
			c++
		}
	}
	return c
}

// TestExactMatchesNaive is the core correctness property: the exact
// estimator equals the definition for every threshold.
func TestExactMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := 4 + rng.Intn(20)
		data := randData(rng, 50+rng.Intn(100), dims, 0.3)
		perm := rng.Perm(dims)
		part := perm[:1+rng.Intn(dims-1)]
		ex := NewExact(data, part)
		q := data[rng.Intn(len(data))]
		maxTau := 6
		got := ex.CNAll(q, maxTau)
		if got[0] != 0 {
			return false
		}
		for e := -1; e <= maxTau; e++ {
			if got[e+1] != naiveCN(data, part, q, e) {
				t.Errorf("seed=%d e=%d: exact %d naive %d", seed, e, got[e+1], naiveCN(data, part, q, e))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestExactSaturates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := randData(rng, 100, 16, 0.5)
	dims := []int{0, 1, 2, 3}
	ex := NewExact(data, dims)
	got := ex.CNAll(data[0], 10)
	if got[len(got)-1] != int64(len(data)) {
		t.Fatalf("CN at e=width.. should be N, got %d", got[len(got)-1])
	}
}

func TestExactEmptyPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := randData(rng, 30, 8, 0.5)
	ex := NewExact(data, nil)
	got := ex.CNAll(data[0], 3)
	// Empty projection: all vectors are at distance 0.
	for e := 0; e <= 3; e++ {
		if got[e+1] != int64(len(data)) {
			t.Fatalf("empty partition CN(%d) = %d", e, got[e+1])
		}
	}
}

func TestExactHistogramSums(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := randData(rng, 200, 24, 0.4)
	dims := []int{1, 5, 9, 13, 17, 21}
	ex := NewExact(data, dims)
	h := ex.Histogram(data[7])
	var sum int64
	for _, c := range h {
		sum += c
	}
	if sum != int64(len(data)) {
		t.Fatalf("histogram sums to %d, want %d", sum, len(data))
	}
}

// TestExactKernelMatchesBitvec checks the scan kernel — the one-word
// popcount loop for widths ≤ 64 and the striped loop beyond — against
// a histogram taken with bitvec.Hamming over the materialized
// projections, at widths on both sides of every word boundary, and
// the CN rows derived from it from no threshold (maxTau = −1) to past
// the width.
func TestExactKernelMatchesBitvec(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, w := range []int{1, 24, 63, 64, 65, 130} {
		total := w + 7
		data := randData(rng, 300, total, 0.35)
		data = append(data, bitvec.New(total)) // all-zero and all-one rows:
		ones := bitvec.New(total)              // distances 0 and w both occur
		for d := 0; d < total; d++ {
			ones.Set(d)
		}
		data = append(data, ones)
		dims := rng.Perm(total)[:w]
		ex := NewExact(data, dims)
		for _, q := range []bitvec.Vector{data[0], data[len(data)-1], data[len(data)-2], randData(rng, 1, total, 0.5)[0]} {
			want := make([]int64, w+1)
			qp := q.Project(dims)
			for _, v := range data {
				want[qp.Hamming(v.Project(dims))]++
			}
			got := ex.Histogram(q)
			if len(got) != w+1 {
				t.Fatalf("w=%d: histogram has %d bins, want %d", w, len(got), w+1)
			}
			for d := range want {
				if got[d] != want[d] {
					t.Fatalf("w=%d distance %d: kernel %d, bitvec %d", w, d, got[d], want[d])
				}
			}
			for _, maxTau := range []int{-1, 0, 1, w / 2, w - 1, w, w + 3} {
				row := ex.CNAll(q, maxTau)
				if len(row) != maxTau+2 || row[0] != 0 {
					t.Fatalf("w=%d maxTau=%d: row %v", w, maxTau, row)
				}
				var cum int64
				for e := 0; e <= maxTau; e++ {
					if e <= w {
						cum += want[e]
					}
					if row[e+1] != cum {
						t.Fatalf("w=%d maxTau=%d: CN(%d) = %d, want %d", w, maxTau, e, row[e+1], cum)
					}
				}
			}
		}
	}
}
