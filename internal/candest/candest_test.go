package candest

import (
	"math"
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

// TestSubPartitionProperties: monotone, bounded by N, zero at e < mi−1
// only when the composition demands it, and reasonably close to exact
// on independent dimensions.
func TestSubPartitionProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := randData(rng, 400, 24, 0.5) // independent dimensions
	dims := make([]int, 12)
	for i := range dims {
		dims[i] = i
	}
	sp := NewSubPartition(data, dims, 2)
	ex := NewExact(data, dims)
	q := data[0]
	maxTau := 12
	got := sp.CNAll(q, maxTau)
	want := ex.CNAll(q, maxTau)
	if got[0] != 0 {
		t.Fatal("CN(−1) != 0")
	}
	for e := 1; e < len(got); e++ {
		if got[e] < got[e-1] {
			t.Fatalf("not monotone at %d", e)
		}
		if got[e] > int64(len(data)) {
			t.Fatalf("exceeds N at %d", e)
		}
	}
	// At saturation both reach N.
	if got[maxTau+1] != want[maxTau+1] {
		t.Fatalf("saturation mismatch: sp %d exact %d", got[maxTau+1], want[maxTau+1])
	}
	// Mid-range relative error on independent dims should be modest
	// (the estimate deliberately underestimates by the −mᵢ+1 budget).
	e := 8
	if want[e+1] > 0 {
		rel := math.Abs(float64(got[e+1])-float64(want[e+1])) / float64(want[e+1])
		if rel > 0.9 {
			t.Fatalf("relative error %.2f at e=%d (sp=%d exact=%d)", rel, e, got[e+1], want[e+1])
		}
	}
}

func TestSubPartitionSingleSub(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := randData(rng, 100, 8, 0.5)
	dims := []int{0, 1, 2, 3, 4, 5}
	sp := NewSubPartition(data, dims, 1)
	ex := NewExact(data, dims)
	q := data[3]
	got := sp.CNAll(q, 6)
	want := ex.CNAll(q, 6)
	// With one sub-partition the budget correction vanishes: identical.
	for e := range got {
		if got[e] != want[e] {
			t.Fatalf("mi=1 should equal exact: e=%d sp=%d exact=%d", e-1, got[e], want[e])
		}
	}
}

func TestSubPartitionMoreSubsThanDims(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := randData(rng, 50, 6, 0.5)
	sp := NewSubPartition(data, []int{0, 1}, 5) // clamped to 2
	got := sp.CNAll(data[0], 4)
	if got[len(got)-1] != int64(len(data)) {
		t.Fatal("clamped sub-partitioning broken")
	}
}

func TestLearnedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := randData(rng, 300, 16, 0.3)
	dims := make([]int, 16)
	for i := range dims {
		dims[i] = i
	}
	for _, mk := range []ModelKind{ModelKRR, ModelForest, ModelMLP} {
		l, err := NewLearned(data, dims, 16, LearnedConfig{Model: mk, TrainN: 20, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", mk, err)
		}
		got := l.CNAll(data[0], 16)
		if got[0] != 0 {
			t.Fatalf("%v: CN(−1) != 0", mk)
		}
		for e := 1; e < len(got); e++ {
			if got[e] < got[e-1] || got[e] > int64(len(data)) || got[e] < 0 {
				t.Fatalf("%v: invariant broken at e=%d: %v", mk, e-1, got)
			}
		}
		if l.Predict(data[0], -1) != 0 {
			t.Fatalf("%v: Predict(−1) != 0", mk)
		}
		if l.SizeBytes() <= 0 {
			t.Fatalf("%v: SizeBytes = %d", mk, l.SizeBytes())
		}
	}
}

func TestLearnedAccuracyAtSaturation(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	data := randData(rng, 500, 12, 0.2)
	dims := make([]int, 12)
	for i := range dims {
		dims[i] = i
	}
	l, err := NewLearned(data, dims, 12, LearnedConfig{Model: ModelKRR, TrainN: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := l.Predict(data[0], 12)
	if got < int64(float64(len(data))*0.5) {
		t.Fatalf("saturated prediction %d far below N=%d", got, len(data))
	}
}

// TestLearnedClampsBeyondTrainedTau is the out-of-range regression
// test: thresholds past the trained maxTau must saturate at the
// trained-bound prediction instead of extrapolating the τ feature
// outside the training range. Before the clamp, a KRR model asked at
// e = 3·maxTau fed the RBF kernel a feature three times beyond any
// training point and returned whatever the kernel tail produced.
func TestLearnedClampsBeyondTrainedTau(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	data := randData(rng, 300, 14, 0.3)
	dims := make([]int, 14)
	for i := range dims {
		dims[i] = i
	}
	const trainedTau = 8
	for _, mk := range []ModelKind{ModelKRR, ModelForest, ModelMLP} {
		l, err := NewLearned(data, dims, trainedTau, LearnedConfig{Model: mk, TrainN: 20, Seed: 3})
		if err != nil {
			t.Fatalf("%v: %v", mk, err)
		}
		q := data[0]
		atBound := l.Predict(q, trainedTau)
		for _, e := range []int{trainedTau + 1, trainedTau * 2, trainedTau * 3} {
			if got := l.Predict(q, e); got != atBound {
				t.Fatalf("%v: Predict(τ=%d) = %d, want trained-bound value %d", mk, e, got, atBound)
			}
		}
		// CNAll asked past the trained range: every entry beyond the
		// bound saturates at the bound's (monotone-corrected) value.
		all := l.CNAll(q, trainedTau*3)
		for e := trainedTau; e <= trainedTau*3; e++ {
			if all[e+1] != all[trainedTau+1] {
				t.Fatalf("%v: CNAll τ=%d is %d, want saturated %d", mk, e, all[e+1], all[trainedTau+1])
			}
		}
	}
}

func TestModelKindString(t *testing.T) {
	if ModelKRR.String() != "SVM" || ModelForest.String() != "RF" || ModelMLP.String() != "DNN" {
		t.Fatal("ModelKind labels drifted from the paper's")
	}
}

func TestEstimatorInterfaces(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := randData(rng, 60, 10, 0.5)
	dims := []int{0, 3, 6, 9}
	var ests []Estimator
	ests = append(ests, NewExact(data, dims), NewSubPartition(data, dims, 2))
	for _, est := range ests {
		if got := est.Dims(); len(got) != len(dims) {
			t.Fatal("Dims() mismatch")
		}
		if est.SizeBytes() <= 0 {
			t.Fatal("SizeBytes not positive")
		}
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
