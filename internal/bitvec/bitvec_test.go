package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 881} {
		v := New(n)
		if v.Dims() != n {
			t.Fatalf("Dims() = %d, want %d", v.Dims(), n)
		}
		if v.PopCount() != 0 {
			t.Fatalf("n=%d: fresh vector has popcount %d", n, v.PopCount())
		}
		for i := 0; i < n; i++ {
			if v.Bit(i) != 0 {
				t.Fatalf("n=%d: bit %d set in fresh vector", n, i)
			}
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetClearFlip(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 128, 129} {
		v.Set(i)
		if v.Bit(i) != 1 {
			t.Fatalf("Set(%d) did not set", i)
		}
		v.Flip(i)
		if v.Bit(i) != 0 {
			t.Fatalf("Flip(%d) did not clear", i)
		}
		v.Flip(i)
		if v.Bit(i) != 1 {
			t.Fatalf("second Flip(%d) did not set", i)
		}
		v.Clear(i)
		if v.Bit(i) != 0 {
			t.Fatalf("Clear(%d) did not clear", i)
		}
		v.SetBit(i, 1)
		if v.Bit(i) != 1 {
			t.Fatalf("SetBit(%d,1) did not set", i)
		}
		v.SetBit(i, 0)
		if v.Bit(i) != 0 {
			t.Fatalf("SetBit(%d,0) did not clear", i)
		}
	}
}

func TestBitOutOfRangePanics(t *testing.T) {
	v := New(10)
	for _, i := range []int{-1, 10, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Bit(%d) did not panic", i)
				}
			}()
			v.Bit(i)
		}()
	}
}

func TestFromStringRoundTrip(t *testing.T) {
	cases := []string{"", "0", "1", "0101101", "000000001", "11111111111111111111111111111111111111111111111111111111111111111"}
	for _, s := range cases {
		v, err := FromString(s)
		if err != nil {
			t.Fatalf("FromString(%q): %v", s, err)
		}
		if got := v.String(); got != s {
			t.Fatalf("round trip %q -> %q", s, got)
		}
	}
	if _, err := FromString("01012"); err == nil {
		t.Fatal("FromString accepted invalid rune")
	}
}

func TestFromBits(t *testing.T) {
	v := FromBits([]byte{0, 1, 0, 2, 0})
	if v.String() != "01010" {
		t.Fatalf("FromBits = %s", v.String())
	}
}

func TestFromWordsMasksTail(t *testing.T) {
	v := FromWords(4, []uint64{0xFFFF})
	if v.PopCount() != 4 {
		t.Fatalf("tail not masked: popcount %d", v.PopCount())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FromWords with wrong word count did not panic")
		}
	}()
	FromWords(65, []uint64{0})
}

func TestHammingKnown(t *testing.T) {
	a := MustFromString("10110011")
	b := MustFromString("10011010")
	if d := a.Hamming(b); d != 3 {
		t.Fatalf("Hamming = %d, want 3", d)
	}
	if !a.HammingWithin(b, 3) || a.HammingWithin(b, 2) {
		t.Fatal("HammingWithin boundary wrong")
	}
	if a.HammingWithin(b, -1) {
		t.Fatal("HammingWithin(-1) must be false")
	}
}

func TestHammingDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Hamming across dims did not panic")
		}
	}()
	New(8).Hamming(New(9))
}

func randVec(rng *rand.Rand, n int) Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			v.Set(i)
		}
	}
	return v
}

// TestHammingMetricAxioms property-checks identity, symmetry and the
// triangle inequality.
func TestHammingMetricAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		a, b, c := randVec(r, n), randVec(r, n), randVec(r, n)
		if a.Hamming(a) != 0 {
			return false
		}
		if a.Hamming(b) != b.Hamming(a) {
			return false
		}
		return a.Hamming(c) <= a.Hamming(b)+b.Hamming(c)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestHammingEqualsXorPopcount cross-checks the distance kernel against
// the definition.
func TestHammingEqualsXorPopcount(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a, b := randVec(r, n), randVec(r, n)
		naive := 0
		for i := 0; i < n; i++ {
			if a.Bit(i) != b.Bit(i) {
				naive++
			}
		}
		return a.Hamming(b) == naive && a.Xor(b).PopCount() == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestProjectionDistanceSum verifies the identity the pigeonhole
// principle rests on: distances over disjoint covering partitions sum
// to the full distance.
func TestProjectionDistanceSum(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(150)
		a, b := randVec(r, n), randVec(r, n)
		perm := r.Perm(n)
		m := 1 + r.Intn(5)
		total := 0
		for i := 0; i < m; i++ {
			lo, hi := i*n/m, (i+1)*n/m
			dims := perm[lo:hi]
			total += a.Project(dims).Hamming(b.Project(dims))
		}
		return total == a.Hamming(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestProjectInto holds ProjectInto to a per-bit reference — Bit and Set,
// nothing shared with its word-at-a-time loop — for dims in no order and
// landing in the same source word again and again, at the widths where
// the output's word count changes, over sources of less than a word, of
// whole words and of a ragged tail; dst starts dirty, so every word must
// be written. A wrong-sized dst and an out-of-range dim still panic.
func TestProjectInto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{37, 256, 881} {
		v := randVec(rng, n)
		for _, w := range []int{1, 63, 64, 65, 128, 130} {
			for _, shape := range []string{"unsorted", "one word", "repeated"} {
				dims := make([]int, w)
				for j := range dims {
					switch shape {
					case "unsorted":
						dims[j] = rng.Intn(n)
					case "one word": // every dim from the source's last word
						dims[j] = (n-1)/64*64 + rng.Intn((n-1)%64+1)
					case "repeated": // three dims, over and over
						dims[j] = (j % 3) * (n - 1) / 2
					}
				}
				want := New(w)
				for j, d := range dims {
					if v.Bit(d) == 1 {
						want.Set(j)
					}
				}
				dst := New(w)
				for j := 0; j < w; j++ {
					dst.Set(j)
				}
				v.ProjectInto(dims, dst)
				if !dst.Equal(want) {
					t.Fatalf("n=%d w=%d %s dims: ProjectInto %s, bit by bit %s", n, w, shape, dst, want)
				}
				if err := dst.CheckTail(); err != nil {
					t.Fatalf("n=%d w=%d %s dims: %v", n, w, shape, err)
				}
			}
		}
	}
	v := MustFromString("10110")
	for name, call := range map[string]func(){
		"a dst of the wrong width": func() { v.ProjectInto([]int{4, 0, 2}, New(4)) },
		"a dim past the source":    func() { v.ProjectInto([]int{4, 5, 2}, New(3)) },
		"a negative dim":           func() { v.ProjectInto([]int{4, -1, 2}, New(3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ProjectInto with %s did not panic", name)
				}
			}()
			call()
		}()
	}
}

// BenchmarkProjectInto projects one 256-d vector onto ten partitions of
// 20–28 scattered dimensions — the shape of a lib_selective query's
// bindQuery — and reports ns a query and ns a bit.
func BenchmarkProjectInto(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const n = 256
	v := randVec(rng, n)
	perm := rng.Perm(n)
	var parts [][]int
	var dsts []Vector
	for _, w := range []int{28, 24, 26, 25, 27, 24, 26, 28, 22, 26} {
		parts = append(parts, perm[:w])
		dsts = append(dsts, New(w))
		perm = perm[w:]
	}
	b.ResetTimer()
	for range b.N {
		for i, dims := range parts {
			v.ProjectInto(dims, dsts[i])
		}
	}
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(ns, "ns/query")
	b.ReportMetric(ns/n, "ns/bit")
}

func TestKeyUniqueness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		a, b := randVec(r, n), randVec(r, n)
		return (a.Key() == b.Key()) == a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendKeyMatchesKey(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		v := randVec(rng, 1+rng.Intn(300))
		if string(v.AppendKey(nil)) != v.Key() {
			t.Fatal("AppendKey != Key")
		}
	}
}

func TestOnesIndices(t *testing.T) {
	v := MustFromString("0100100000000000000000000000000000000000000000000000000000000000011")
	got := v.OnesIndices()
	want := []int{1, 4, 65, 66}
	if len(got) != len(want) {
		t.Fatalf("OnesIndices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OnesIndices = %v, want %v", got, want)
		}
	}
	if v.PopCount() != len(want) {
		t.Fatalf("PopCount = %d", v.PopCount())
	}
}

func TestCloneIndependence(t *testing.T) {
	a := MustFromString("1010")
	b := a.Clone()
	b.Flip(0)
	if a.Bit(0) != 1 || b.Bit(0) != 0 {
		t.Fatal("Clone shares storage")
	}
}

func TestEqualDifferentDims(t *testing.T) {
	if New(8).Equal(New(9)) {
		t.Fatal("vectors of different dims compared equal")
	}
}

func TestCloneInto(t *testing.T) {
	src := MustFromString("101100101")
	// Too-small destination: must fall back to a fresh clone.
	got := src.CloneInto(New(3))
	if !got.Equal(src) {
		t.Fatalf("CloneInto = %v, want %v", got, src)
	}
	// Large destination: storage reused, contents equal.
	dst := New(192)
	dst.Set(150)
	got = src.CloneInto(dst)
	if !got.Equal(src) {
		t.Fatalf("CloneInto = %v, want %v", got, src)
	}
	got.Flip(0)
	if src.Bit(0) != 1 {
		t.Fatal("CloneInto result aliases the source")
	}
}

func TestResizedThenProjectInto(t *testing.T) {
	// Resized contents are unspecified; ProjectInto must fully
	// overwrite them, including tail bits beyond the new length.
	wide := New(128)
	for i := 0; i < 128; i++ {
		wide.Set(i)
	}
	src := MustFromString("0110")
	proj := wide.Resized(2)
	src.ProjectInto([]int{1, 0}, proj)
	if proj.Dims() != 2 || proj.Bit(0) != 1 || proj.Bit(1) != 0 {
		t.Fatalf("projection after Resized = %v", proj)
	}
	if proj.PopCount() != 1 {
		t.Fatalf("stale bits survived ProjectInto: popcount %d", proj.PopCount())
	}
	// Growth beyond capacity allocates.
	grown := proj.Resized(512)
	if grown.Dims() != 512 {
		t.Fatalf("Resized(512) has %d dims", grown.Dims())
	}
}

// TestHammingWithinBoundaryTaus pins the threshold contract at the
// boundaries shared with the batch kernels in internal/verify:
// t < 0 admits nothing, t >= dims admits everything, and every t in
// between equals the exact-distance comparison — including on
// dimensionalities that are not multiples of the word size, where a
// forgotten tail mask would flip the t >= dims case.
func TestHammingWithinBoundaryTaus(t *testing.T) {
	for _, dims := range []int{1, 63, 64, 65, 100, 128, 129} {
		zero := New(dims)
		full := New(dims)
		for i := 0; i < dims; i++ {
			full.Set(i)
		}
		one := New(dims)
		one.Set(dims - 1)
		vectors := []Vector{zero, full, one}
		for _, v := range vectors {
			for _, u := range vectors {
				d := v.Hamming(u)
				for _, tau := range []int{-2, -1, 0, 1, dims - 1, dims, dims + 1, dims + 64} {
					want := tau >= 0 && d <= tau
					if got := v.HammingWithin(u, tau); got != want {
						t.Fatalf("dims=%d d=%d tau=%d: HammingWithin=%v want %v", dims, d, tau, got, want)
					}
				}
			}
		}
		// H(zero, full) = dims exactly: the largest possible distance
		// must be admitted at t = dims and rejected at t = dims-1
		// (unless dims = 1, where t = 0 rejects it already).
		if !zero.HammingWithin(full, dims) {
			t.Fatalf("dims=%d: distance dims not within t=dims", dims)
		}
		if dims > 1 && zero.HammingWithin(full, dims-1) {
			t.Fatalf("dims=%d: distance dims within t=dims-1", dims)
		}
	}
}
