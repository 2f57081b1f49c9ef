package alloc

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randomTable builds a monotone CN table for m partitions.
func randomTable(r *rand.Rand, m, tau int) Table {
	t := make(Table, m)
	for i := range t {
		row := make([]int64, tau+2)
		var cum int64
		for e := 1; e < len(row); e++ {
			cum += int64(r.Intn(50))
			row[e] = cum
		}
		t[i] = row
	}
	return t
}

// bruteForce enumerates every threshold vector with entries in
// [−1, tau] summing to tau−m+1 and returns the minimal Σ CN.
func bruteForce(cn Table, tau int) int64 {
	m := len(cn)
	best := int64(1) << 60
	var rec func(i int, sum int64, remaining int)
	rec = func(i int, sum int64, remaining int) {
		if sum >= best {
			return
		}
		if i == m {
			if remaining == 0 && sum < best {
				best = sum
			}
			return
		}
		for e := -1; e <= tau; e++ {
			// Prune: remaining partitions can contribute at most
			// (m−i−1)·tau and at least −(m−i−1).
			rest := remaining - e
			left := m - i - 1
			if rest < -left || rest > left*tau {
				continue
			}
			add := int64(0)
			if e >= 0 {
				add = cn[i][e+1]
			}
			rec(i+1, sum+add, rest)
		}
	}
	rec(0, 0, tau-len(cn)+1)
	return best
}

// TestAllocateOptimal checks the DP against brute force on random
// monotone tables (signature term disabled, no budget — the setting
// where the two objectives coincide).
func TestAllocateOptimal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(4)
		tau := r.Intn(7)
		cn := randomTable(r, m, tau)
		widths := make([]int, m)
		for i := range widths {
			widths[i] = 4 + r.Intn(12)
		}
		res := Allocate(cn, Params{Tau: tau, Widths: widths, SigWeight: -1})
		if err := CheckVector(res.Thresholds, tau); err != nil {
			t.Errorf("invalid vector: %v", err)
			return false
		}
		if got := SumCN(cn, res.Thresholds, tau); got != res.SumCN {
			t.Errorf("SumCN mismatch: reported %d, recomputed %d", res.SumCN, got)
			return false
		}
		want := bruteForce(cn, tau)
		if res.SumCN != want {
			t.Errorf("m=%d tau=%d: DP %d, brute force %d (T=%v)", m, tau, res.SumCN, want, res.Thresholds)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestAllocateConstraint checks ‖T‖₁ = τ−m+1 and entry ranges across
// budgets and weights.
func TestAllocateConstraint(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(6)
		tau := r.Intn(12)
		cn := randomTable(r, m, tau)
		widths := make([]int, m)
		for i := range widths {
			widths[i] = 2 + r.Intn(20)
		}
		res := Allocate(cn, Params{Tau: tau, Widths: widths, EnumBudget: 1 << 16})
		if res.Fallback {
			return true // legal outcome for adversarial shapes
		}
		return CheckVector(res.Thresholds, tau) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateSkipsExpensivePartition(t *testing.T) {
	// Partition 0 is catastrophically unselective; with enough slack
	// the DP must assign it −1.
	tau := 4
	cn := Table{
		{0, 1000, 1000, 1000, 1000, 1000},
		{0, 0, 1, 2, 3, 4},
		{0, 0, 1, 2, 3, 4},
	}
	res := Allocate(cn, Params{Tau: tau, Widths: []int{16, 16, 16}, SigWeight: -1})
	if res.Thresholds[0] != -1 {
		t.Fatalf("expected partition 0 skipped, got %v", res.Thresholds)
	}
}

func TestAllocatePaperExample(t *testing.T) {
	// Example 5 of the paper: 4 partitions, τ=7 (so the target sum is
	// τ−m+1 = 4), CN tables as given; the optimum is 55 via [2,0,2,0].
	cn := Table{
		{0, 5, 10, 15, 50, 100, 100, 100, 100},
		{0, 10, 80, 90, 95, 100, 100, 100, 100},
		{0, 5, 15, 20, 70, 100, 100, 100, 100},
		{0, 10, 70, 80, 95, 100, 100, 100, 100},
	}
	res := Allocate(cn, Params{Tau: 7, Widths: []int{8, 8, 8, 8}, SigWeight: -1})
	if res.SumCN != 55 {
		t.Fatalf("paper example: SumCN = %d, want 55 (T=%v)", res.SumCN, res.Thresholds)
	}
	want := []int{2, 0, 2, 0}
	for i := range want {
		if res.Thresholds[i] != want[i] {
			t.Fatalf("paper example: T = %v, want %v", res.Thresholds, want)
		}
	}
}

func TestAllocateBudgetRespected(t *testing.T) {
	// Width 30 partitions: ball(30,2)=466, ball(30,3)=4526. A budget of
	// 1000 caps thresholds at 2 unless escalation is needed.
	m, tau := 3, 5
	cn := make(Table, m)
	for i := range cn {
		cn[i] = []int64{0, 0, 0, 0, 0, 0, 0}
	}
	res := Allocate(cn, Params{Tau: tau, Widths: []int{30, 30, 30}, EnumBudget: 1000})
	if res.Fallback {
		t.Fatal("unexpected fallback")
	}
	for i, e := range res.Thresholds {
		if e > 2 {
			t.Fatalf("partition %d got %d beyond budgeted radius (T=%v, budget=%d)",
				i, e, res.Thresholds, res.EffectiveBudget)
		}
	}
	if res.EffectiveBudget != 1000 {
		t.Fatalf("EffectiveBudget = %d", res.EffectiveBudget)
	}
}

func TestAllocateBudgetEscalation(t *testing.T) {
	// τ forces more total threshold than the initial budget allows;
	// the allocator must escalate rather than fail.
	tau := 11
	cn := Table{make([]int64, tau+2), make([]int64, tau+2)}
	res := Allocate(cn, Params{Tau: tau, Widths: []int{12, 12}, EnumBudget: 30})
	if res.Fallback {
		t.Fatal("should have escalated, not fallen back")
	}
	if res.EffectiveBudget <= 30 {
		t.Fatalf("EffectiveBudget = %d, want escalated", res.EffectiveBudget)
	}
	if err := CheckVector(res.Thresholds, tau); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateFallback(t *testing.T) {
	// Two width-40 partitions at τ=79: any valid allocation needs ~39
	// per partition; ball(40,39)≈2^40 exceeds every escalated budget.
	tau := 79
	cn := Table{make([]int64, tau+2), make([]int64, tau+2)}
	res := Allocate(cn, Params{Tau: tau, Widths: []int{40, 40}, EnumBudget: 1024})
	if !res.Fallback {
		t.Fatalf("expected fallback, got T=%v budget=%d", res.Thresholds, res.EffectiveBudget)
	}
	if res.SumCN != FallbackCost || res.Objective != FallbackCost {
		t.Fatalf("fallback costs = %d/%d", res.SumCN, res.Objective)
	}
}

func TestRoundRobin(t *testing.T) {
	var s Scratch
	for m := 1; m <= 8; m++ {
		for tau := 0; tau <= 20; tau++ {
			T := s.RoundRobin(m, tau)
			if err := CheckVector(T, tau); err != nil {
				t.Fatalf("m=%d tau=%d: %v", m, tau, err)
			}
			// Near-equal: max − min ≤ 1.
			lo, hi := T[0], T[0]
			for _, e := range T {
				if e < lo {
					lo = e
				}
				if e > hi {
					hi = e
				}
			}
			if hi-lo > 1 {
				t.Fatalf("m=%d tau=%d: uneven RR %v", m, tau, T)
			}
			// The cyclic definition: tau + 1 increments from −1, in turn.
			want := make([]int, m)
			for i := range want {
				want[i] = -1
			}
			for k := 0; k <= tau; k++ {
				want[k%m]++
			}
			if !slices.Equal(T, want) {
				t.Fatalf("m=%d tau=%d: RR %v, cyclic %v", m, tau, T, want)
			}
		}
	}
}

func TestCheckVector(t *testing.T) {
	if err := CheckVector([]int{2, 0, 2, 0}, 7); err != nil {
		t.Fatal(err)
	}
	if CheckVector([]int{3, 0, 2, 0}, 7) == nil {
		t.Fatal("wrong sum accepted")
	}
	if CheckVector([]int{-2, 3, 2, 1}, 7) == nil {
		t.Fatal("entry below −1 accepted")
	}
	if CheckVector([]int{8, -1, -1, -1}, 7) == nil {
		t.Fatal("entry above τ accepted")
	}
}

func TestTableValidate(t *testing.T) {
	good := Table{{0, 1, 2}, {0, 0, 5}}
	if err := good.Validate(1); err != nil {
		t.Fatal(err)
	}
	if (Table{}).Validate(1) == nil {
		t.Fatal("empty table accepted")
	}
	if (Table{{1, 1, 2}}).Validate(1) == nil {
		t.Fatal("nonzero CN(−1) accepted")
	}
	if (Table{{0, 5, 2}}).Validate(1) == nil {
		t.Fatal("non-monotone row accepted")
	}
	if (Table{{0, 1}}).Validate(1) == nil {
		t.Fatal("short row accepted")
	}
}

// TestCumulate: a histogram becomes a row Validate accepts — 0 at
// e = −1, the prefix sums, constant once the histogram ends — for rows
// from no threshold (maxTau = −1) to past the histogram's last bin.
func TestCumulate(t *testing.T) {
	hist := []int64{2, 0, 5, 1, 0, 3}
	for _, maxTau := range []int{-1, 0, 1, 4, 5, 9} {
		row := make([]int64, maxTau+2)
		Cumulate(hist, row)
		var cum int64
		for e := 0; e <= maxTau; e++ {
			if e < len(hist) {
				cum += hist[e]
			}
			if row[e+1] != cum {
				t.Fatalf("maxTau=%d: CN(%d) = %d, want %d", maxTau, e, row[e+1], cum)
			}
		}
		if err := (Table{row}).Validate(maxTau); err != nil {
			t.Fatalf("maxTau=%d: %v", maxTau, err)
		}
	}
}

func TestAllocatePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"mismatched widths", func() { Allocate(Table{{0, 1}}, Params{Tau: 0, Widths: []int{1, 2}}) }},
		{"no partitions", func() { Allocate(Table{}, Params{Tau: 0, Widths: nil}) }},
		{"negative tau", func() { Allocate(Table{{0, 1}}, Params{Tau: -1, Widths: []int{4}}) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}
