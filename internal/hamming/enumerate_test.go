package hamming

import (
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gph/internal/bitvec"
)

func TestBinomialKnown(t *testing.T) {
	cases := []struct {
		n, k int
		want uint64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 3, 120},
		{52, 5, 2598960}, {64, 32, 1832624140942590534},
		{5, 6, 0}, {5, -1, 0},
	}
	for _, c := range cases {
		got, ok := Binomial(c.n, c.k)
		if !ok || got != c.want {
			t.Fatalf("Binomial(%d,%d) = %d,%v want %d", c.n, c.k, got, ok, c.want)
		}
	}
}

func TestBinomialPascal(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for k := 1; k < n; k++ {
			a, _ := Binomial(n-1, k-1)
			b, _ := Binomial(n-1, k)
			c, _ := Binomial(n, k)
			if a+b != c {
				t.Fatalf("Pascal identity fails at (%d,%d)", n, k)
			}
		}
	}
}

func TestBinomialOverflow(t *testing.T) {
	if _, ok := Binomial(200, 100); ok {
		t.Fatal("Binomial(200,100) should overflow uint64")
	}
}

func TestBallSize(t *testing.T) {
	got, ok := BallSize(8, 2)
	if !ok || got != 1+8+28 {
		t.Fatalf("BallSize(8,2) = %d,%v", got, ok)
	}
	if s, ok := BallSize(8, 100); !ok || s != 256 {
		t.Fatalf("BallSize(8,100) = %d,%v want full cube", s, ok)
	}
	if s, _ := BallSize(8, -1); s != 0 {
		t.Fatalf("BallSize(8,-1) = %d", s)
	}
	if _, ok := BallSize(300, 150); ok {
		t.Fatal("BallSize(300,150) should saturate")
	}
}

// TestEnumerateBallComplete checks every enumerated vector is unique,
// within radius, and that the count equals BallSize.
func TestEnumerateBallComplete(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := 1 + r.Intn(12)
		radius := r.Intn(w + 2)
		center := bitvec.New(w)
		for i := 0; i < w; i++ {
			if r.Intn(2) == 1 {
				center.Set(i)
			}
		}
		seen := make(map[string]bool)
		err := EnumerateBall(center, radius, 0, func(v bitvec.Vector) bool {
			if center.Hamming(v) > radius {
				t.Errorf("enumerated vector at distance %d > %d", center.Hamming(v), radius)
			}
			if seen[v.Key()] {
				t.Errorf("duplicate vector %s", v.String())
			}
			seen[v.Key()] = true
			return true
		})
		if err != nil {
			return false
		}
		want, _ := BallSize(w, radius)
		return uint64(len(seen)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// ballRecursive is the natural recursion both enumerators unroll: a
// member, then every member that extends it by one higher bit.
func ballRecursive(v bitvec.Vector, r, from int, visit func(bitvec.Vector)) {
	visit(v)
	if r == 0 {
		return
	}
	for i := from; i < v.Dims(); i++ {
		v.Flip(i)
		ballRecursive(v, r-1, i+1, visit)
		v.Flip(i)
	}
}

// TestEnumeratorsWalkTheRecursion: Enumerate — over a word and beyond
// one — and the word walk visit exactly the members the recursion
// visits, in its order; the word walk reports each at its true
// distance and ends back on the centre.
func TestEnumeratorsWalkTheRecursion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, w := range []int{1, 2, 7, 13, 24, 63, 64, 65, 130} {
		for r := 0; r <= w+1; r++ {
			size, ok := BallSize(w, r)
			if !ok || size > 1<<14 {
				break
			}
			center := bitvec.New(w)
			for d := 0; d < w; d++ {
				center.SetBit(d, rng.Intn(2))
			}
			var want []string
			ballRecursive(center.Clone(), min(r, w), 0, func(v bitvec.Vector) { want = append(want, v.Key()) })
			if uint64(len(want)) != size {
				t.Fatalf("w=%d r=%d: the recursion visits %d members, the ball holds %d", w, r, len(want), size)
			}
			var got []string
			if err := EnumerateBall(center, r, 0, func(v bitvec.Vector) bool {
				got = append(got, v.Key())
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("w=%d r=%d: Enumerate departs from the recursion", w, r)
			}
			if w > 64 {
				continue
			}
			got = got[:0]
			word := center.Words()[0]
			member := bitvec.New(w)
			b := NewWordBall(word, w, r)
			for ok := true; ok; ok = b.Next() {
				if d := bits.OnesCount64(b.Sig ^ word); d != b.Dist() || d > r {
					t.Fatalf("w=%d r=%d: member %#x reported at distance %d, is at %d", w, r, b.Sig, b.Dist(), d)
				}
				member.Words()[0] = b.Sig
				got = append(got, member.Key())
			}
			if !slices.Equal(got, want) {
				t.Fatalf("w=%d r=%d: the word walk departs from the recursion", w, r)
			}
			if b.Sig != word || b.Dist() != 0 {
				t.Fatalf("w=%d r=%d: the word walk ends on %#x at distance %d, not on the centre", w, r, b.Sig, b.Dist())
			}
		}
	}
}

func TestEnumerateBallNegativeRadius(t *testing.T) {
	called := false
	if err := EnumerateBall(bitvec.New(4), -1, 0, func(bitvec.Vector) bool {
		called = true
		return true
	}); err != nil || called {
		t.Fatalf("negative radius: err=%v called=%v", err, called)
	}
}

func TestEnumerateBallBudget(t *testing.T) {
	center := bitvec.New(20)
	err := EnumerateBall(center, 3, 10, func(bitvec.Vector) bool { return true })
	if !errors.Is(err, ErrEnumerationBudget) {
		t.Fatalf("want ErrEnumerationBudget, got %v", err)
	}
	// Exactly at budget: ball(20,1) = 21.
	count := 0
	if err := EnumerateBall(center, 1, 21, func(bitvec.Vector) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 21 {
		t.Fatalf("count = %d", count)
	}
}

func TestEnumerateBallEarlyStop(t *testing.T) {
	count := 0
	err := EnumerateBall(bitvec.New(16), 2, 0, func(bitvec.Vector) bool {
		count++
		return count < 5
	})
	if err != nil || count != 5 {
		t.Fatalf("early stop: err=%v count=%d", err, count)
	}
}

func TestEnumerateBallScratchRestored(t *testing.T) {
	center := bitvec.MustFromString("1100")
	var last bitvec.Vector
	_ = EnumerateBall(center, 2, 0, func(v bitvec.Vector) bool {
		last = v
		return true
	})
	// After enumeration the scratch must be back at the center.
	if !last.Equal(center) {
		t.Fatalf("scratch not restored: %s", last)
	}
}

func TestBallCollect(t *testing.T) {
	got := BallCollect(bitvec.New(5), 1)
	if len(got) != 6 {
		t.Fatalf("BallCollect size %d", len(got))
	}
}

func TestBallSizeMonotone(t *testing.T) {
	prev := uint64(0)
	for r := 0; r <= 24; r++ {
		s, ok := BallSize(24, r)
		if !ok || s < prev {
			t.Fatalf("BallSize(24,%d) = %d not monotone", r, s)
		}
		prev = s
	}
	if prev != uint64(math.Pow(2, 24)) {
		t.Fatalf("full ball = %d, want 2^24", prev)
	}
}
