package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gph/internal/bitvec"
)

func randData(rng *rand.Rand, n, dims int) []bitvec.Vector {
	out := make([]bitvec.Vector, n)
	for i := range out {
		v := bitvec.New(dims)
		for d := 0; d < dims; d++ {
			if rng.Intn(2) == 1 {
				v.Set(d)
			}
		}
		out[i] = v
	}
	return out
}

func TestEquiWidth(t *testing.T) {
	p := EquiWidth(10, 3)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	widths := p.Widths()
	if widths[0] != 4 || widths[1] != 3 || widths[2] != 3 {
		t.Fatalf("widths = %v", widths)
	}
}

func TestFromOrderPanics(t *testing.T) {
	for _, m := range []int{0, -1, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("m=%d did not panic", m)
				}
			}()
			EquiWidth(10, m)
		}()
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	cases := []Partitioning{
		{Dims: 4, Parts: [][]int{{0, 1}, {1, 2, 3}}},  // overlap
		{Dims: 4, Parts: [][]int{{0, 1}, {3}}},        // missing 2
		{Dims: 4, Parts: [][]int{{0, 1, 2}, {3, 4}}},  // out of range
		{Dims: 4, Parts: [][]int{{0, 1, 2}, {3, -1}}}, // negative
	}
	for i, p := range cases {
		if p.Validate() == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

// TestArrangementsCover property-checks that every strategy yields a
// valid partitioning.
func TestArrangementsCover(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := 4 + rng.Intn(60)
		m := 2 + rng.Intn(min(dims-1, 7))
		sample := randData(rng, 40, dims)
		for _, p := range []*Partitioning{
			EquiWidth(dims, m),
			RandomShuffle(dims, m, seed),
			OS(sample, dims, m),
			DD(sample, dims, m),
			GreedyInit(sample, dims, m),
		} {
			if err := p.Validate(); err != nil {
				t.Errorf("seed=%d: %v", seed, err)
				return false
			}
			if p.NumParts() != m {
				t.Errorf("seed=%d: %d parts, want %d", seed, p.NumParts(), m)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEntropyOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 200
	// Constant column: zero entropy. Uniform independent: high entropy.
	constant := make([]bitvec.Vector, n)
	uniform := make([]bitvec.Vector, n)
	for i := 0; i < n; i++ {
		constant[i] = bitvec.New(4)
		v := bitvec.New(4)
		for d := 0; d < 4; d++ {
			if rng.Intn(2) == 1 {
				v.Set(d)
			}
		}
		uniform[i] = v
	}
	dims := []int{0, 1, 2, 3}
	if h := Entropy(constant, dims); h != 0 {
		t.Fatalf("constant entropy = %v", h)
	}
	if Entropy(uniform, dims) <= 1 {
		t.Fatalf("uniform entropy too small: %v", Entropy(uniform, dims))
	}
}

// TestGreedyInitGroupsCorrelated plants two groups of perfectly
// correlated dimensions; the entropy-greedy init must put each group
// into a single partition (the paper's stated goal).
func TestGreedyInitGroupsCorrelated(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, dims := 300, 8
	data := make([]bitvec.Vector, n)
	for i := 0; i < n; i++ {
		v := bitvec.New(dims)
		a, b := rng.Intn(2), rng.Intn(2)
		// dims 0,2,4,6 copy a; dims 1,3,5,7 copy b.
		for d := 0; d < dims; d++ {
			src := a
			if d%2 == 1 {
				src = b
			}
			if src == 1 {
				v.Set(d)
			}
		}
		data[i] = v
	}
	p := GreedyInit(data, dims, 2)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, part := range p.Parts {
		parity := part[0] % 2
		for _, d := range part {
			if d%2 != parity {
				t.Fatalf("correlated groups split: %v", p.Parts)
			}
		}
	}
}

func TestColumnsCounts(t *testing.T) {
	data := []bitvec.Vector{
		bitvec.MustFromString("110"),
		bitvec.MustFromString("100"),
		bitvec.MustFromString("111"),
	}
	cs := Columns(data, 3)
	if cs.Ones(0) != 3 || cs.Ones(1) != 2 || cs.Ones(2) != 1 {
		t.Fatalf("Ones = %d %d %d", cs.Ones(0), cs.Ones(1), cs.Ones(2))
	}
	if cs.AndOnes(0, 1) != 2 || cs.AndOnes(1, 2) != 1 {
		t.Fatal("AndOnes wrong")
	}
}

func TestWorkloadValidate(t *testing.T) {
	w := Workload{}
	if w.Validate() == nil {
		t.Fatal("empty workload accepted")
	}
	w = Workload{Queries: make([]bitvec.Vector, 2), Taus: []int{1}}
	if w.Validate() == nil {
		t.Fatal("length mismatch accepted")
	}
	w = Workload{Queries: make([]bitvec.Vector, 1), Taus: []int{-1}}
	if w.Validate() == nil {
		t.Fatal("negative tau accepted")
	}
	w = Workload{Queries: make([]bitvec.Vector, 2), Taus: []int{1, 5}}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.MaxTau() != 5 {
		t.Fatalf("MaxTau = %d", w.MaxTau())
	}
}

func TestSurrogateWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := randData(rng, 50, 16)
	w := SurrogateWorkload(data, 20, []int{2, 4, 8}, 7)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(w.Queries) != 20 {
		t.Fatalf("size = %d", len(w.Queries))
	}
	if w.MaxTau() != 8 {
		t.Fatalf("MaxTau = %d", w.MaxTau())
	}
}

// TestRefineNeverWorsens: the hill climber's final workload cost must
// be ≤ the initial partitioning's cost.
func TestRefineNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dims := 24
	data := make([]bitvec.Vector, 400)
	for i := range data {
		v := bitvec.New(dims)
		for d := 0; d < dims; d++ {
			// Skewed block: dims 0–7 nearly constant, rest uniform.
			p := 0.5
			if d < 8 {
				p = 0.05
			}
			if rng.Float64() < p {
				v.Set(d)
			}
		}
		data[i] = v
	}
	sample := SampleRows(data, 200, 1)
	wl := SurrogateWorkload(data, 15, []int{2, 4}, 2)
	init := EquiWidth(dims, 3)
	before := WorkloadCost(init, sample, wl, 1<<16)
	refined, after := Refine(init, sample, wl, RefineConfig{Seed: 5, EnumBudget: 1 << 16})
	if err := refined.Validate(); err != nil {
		t.Fatal(err)
	}
	if after > before {
		t.Fatalf("refinement worsened cost: %d -> %d", before, after)
	}
}

// TestRefinerCNMatchesNaive: the CN rows refinement scores moves with —
// each partition's index over the sample, its histogram cumulated — are
// the definition, CN(q, e) = the sample vectors whose projection lies
// within e of q's, for every e from −1 to past the width: on partitions
// of one word, of several, and of none, where every vector lies at 0.
func TestRefinerCNMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := 4 + rng.Intn(150)
		sample := randData(rng, 50+rng.Intn(100), dims)
		perm := rng.Perm(dims)
		a := rng.Intn(dims)
		b := a + rng.Intn(dims-a)
		p := &Partitioning{Dims: dims, Parts: [][]int{perm[:a], perm[a:b], perm[b:]}}
		wl := Workload{Taus: []int{dims + 3, 0, 5}}
		for range wl.Taus {
			wl.Queries = append(wl.Queries, sample[rng.Intn(len(sample))])
		}
		r := newRefiner(p, sample, wl, 0, 0)
		for qi, q := range wl.Queries {
			for i, part := range p.Parts {
				qp := q.Project(part)
				for e := -1; e <= r.maxTau; e++ {
					var want int64
					for _, v := range sample {
						if e >= 0 && v.Project(part).Hamming(qp) <= e {
							want++
						}
					}
					if got := r.cn[qi][i][e+1]; got != want {
						t.Errorf("seed=%d partition of %d dims, e=%d: CN %d, want %d", seed, len(part), e, got, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDropEmpty(t *testing.T) {
	p := &Partitioning{Dims: 3, Parts: [][]int{{0, 1, 2}, {}}}
	p.DropEmpty()
	if p.NumParts() != 1 {
		t.Fatalf("DropEmpty left %d parts", p.NumParts())
	}
}

func TestSampleRows(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := randData(rng, 100, 8)
	s := SampleRows(data, 30, 1)
	if len(s) != 30 {
		t.Fatalf("sample size %d", len(s))
	}
	if got := SampleRows(data, 200, 1); len(got) != 100 {
		t.Fatal("oversized sample should return all rows")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
