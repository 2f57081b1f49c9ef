package core

// Property tests of the paper's theory (Lemmas 2 and 4, Theorem 1),
// checked directly on vectors rather than through the index.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gph/internal/alloc"
	"gph/internal/bitvec"
	"gph/internal/partition"
)

// TestGeneralPigeonholeLemma4 property-checks Lemma 4: for any
// partitioning P and integer threshold vector T with ‖T‖₁ = τ−m+1,
// if H(x, y) ≤ τ then some partition i has H(xᵢ, yᵢ) ≤ T[i].
func TestGeneralPigeonholeLemma4(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(60)
		m := 1 + rng.Intn(min(n, 6))
		tau := rng.Intn(n)
		p := partition.RandomShuffle(n, m, seed)

		// Random valid threshold vector: start at −1, distribute τ+1.
		T := make([]int, m)
		for i := range T {
			T[i] = -1
		}
		for k := 0; k < tau+1; k++ {
			T[rng.Intn(m)]++
		}
		if err := alloc.CheckVector(T, tau); err != nil {
			t.Fatalf("test harness built invalid vector: %v", err)
		}

		x, y := randVector(rng, n), randVector(rng, n)
		if x.Hamming(y) > tau {
			return true // premise not met; nothing to check
		}
		for i, dims := range p.Parts {
			if len(dims) == 0 {
				continue
			}
			if x.Project(dims).Hamming(y.Project(dims)) <= T[i] {
				return true
			}
		}
		t.Errorf("seed=%d: H=%d ≤ τ=%d but no partition within its threshold %v",
			seed, x.Hamming(y), tau, T)
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestTightnessTheorem1 property-checks the minimality half of
// Theorem 1: for a threshold vector T with ‖T‖₁ = τ−m+1, lowering any
// entry that still has room (the dominance condition) admits a
// counterexample — a vector x with H(x, q) ≤ τ that no partition
// passes under the lowered vector. The witness is the construction in
// the paper's proof: H(xᵢ, qᵢ) = max(0, T'[i]+1).
func TestTightnessTheorem1(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(60)
		m := 2 + rng.Intn(min(n/4, 5))
		tau := m - 1 + rng.Intn(n/2) // ensures target ≥ 0
		p := partition.RandomShuffle(n, m, seed)

		T := make([]int, m)
		for i := range T {
			T[i] = -1
		}
		for k := 0; k < tau+1; k++ {
			T[rng.Intn(m)]++
		}
		// Clamp to partition capacity: the dominance definition only
		// bites when [T'[i], T[i]] ∩ [−1, nᵢ−1] ≠ ∅; keep T[i] ≤ nᵢ−1 so
		// lowering by one is always a legal dominating move.
		for i, dims := range p.Parts {
			if T[i] > len(dims)-1 {
				return true // skip configurations beyond capacity
			}
		}
		// Lower one random entry with room: T' ≺ T.
		j := rng.Intn(m)
		if T[j] < 0 {
			return true
		}
		Tp := append([]int(nil), T...)
		Tp[j]--

		// Witness: x differs from q in exactly max(0, T'[i]+1) bits of
		// each partition.
		q := randVector(rng, n)
		x := q.Clone()
		for i, dims := range p.Parts {
			d := Tp[i] + 1
			if d < 0 {
				d = 0
			}
			if d > len(dims) {
				return true // capacity edge; construction impossible
			}
			for k := 0; k < d; k++ {
				x.Flip(dims[k])
			}
		}
		if x.Hamming(q) > tau {
			t.Errorf("seed=%d: witness exceeds τ: %d > %d", seed, x.Hamming(q), tau)
			return false
		}
		// x must escape the filter under T'.
		for i, dims := range p.Parts {
			if x.Project(dims).Hamming(q.Project(dims)) <= Tp[i] {
				t.Errorf("seed=%d: witness passed partition %d under dominated vector", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func randVector(rng *rand.Rand, n int) bitvec.Vector {
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			v.Set(i)
		}
	}
	return v
}
