package invindex

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gph/internal/bitvec"
)

// TestAddAndPostings: the benchmark harness's build form freezes keys
// added one an id, in id order, and refuses anything else.
func TestAddAndPostings(t *testing.T) {
	ix := New()
	ix.Add("a", 0)
	ix.Add("b", 1)
	ix.Add("a", 2)
	f := ix.Freeze()
	if got := f.AppendPostingsBytes([]byte("a"), nil); !slices.Equal(got, []int32{0, 2}) {
		t.Fatalf("postings(a) = %v", got)
	}
	if f.PostingLenBytes([]byte("b")) != 1 || f.PostingLenBytes([]byte("c")) != 0 {
		t.Fatal("PostingLenBytes wrong")
	}
	if f.NumKeys() != 2 || f.TotalPostings() != 3 {
		t.Fatalf("keys=%d total=%d", f.NumKeys(), f.TotalPostings())
	}
	for _, bad := range []func(*Index){
		func(ix *Index) { ix.Add("c", 5) },         // an id out of order
		func(ix *Index) { ix.Add("cc", 3) },        // another length
		func(*Index) { New().Add("abcdefghi", 0) }, // neither a word nor whole words
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Add accepted a key it cannot freeze")
				}
			}()
			bad(ix)
		}()
	}
}

// TestSortedKeys: keys come out of a freeze in lexicographic order,
// whatever order they went in.
func TestSortedKeys(t *testing.T) {
	ix := New()
	for id, k := range []string{"zz", "aa", "mm"} {
		ix.Add(k, int32(id))
	}
	var keys []string
	ix.Freeze().Range(func(key []byte, _ []int32) bool {
		keys = append(keys, string(key))
		return true
	})
	if !slices.Equal(keys, []string{"aa", "mm", "zz"}) {
		t.Fatalf("keys in the order %v", keys)
	}
}

func TestSizeBytesGrows(t *testing.T) {
	ix := New()
	prev := ix.Freeze().SizeBytes()
	for i := int32(0); i < 100; i++ {
		ix.Add(string(rune('a'+i%26))+"key", i)
		if i%26 == 0 {
			if s := ix.Freeze().SizeBytes(); s <= prev {
				t.Fatal("SizeBytes did not grow with a fresh key")
			} else {
				prev = s
			}
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	ix := New()
	ix.Add("a", 0)
	ix.Add("b", 1)
	visits := 0
	ix.Freeze().Range(func([]byte, []int32) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Fatalf("Range visited %d after stop", visits)
	}
}

// randomVector returns a random w-dim vector.
func randomVector(rng *rand.Rand, w int) bitvec.Vector {
	v := bitvec.New(w)
	for d := 0; d < w; d++ {
		v.SetBit(d, rng.Intn(2))
	}
	return v
}

// vectorRows is the rows ProjectRows would give for vectors of width w
// projected onto all their dimensions.
func vectorRows(vs []bitvec.Vector) []uint64 {
	var rows []uint64
	for _, v := range vs {
		rows = append(rows, v.Words()...)
	}
	return rows
}

// sharesKey reports whether the deletion-variant index of a and b lists
// both under some key.
func sharesKey(a, b bitvec.Vector) bool {
	share := false
	FreezeVariants(2, a.Dims(), vectorRows([]bitvec.Vector{a, b})).Range(func(_ []byte, ids []int32) bool {
		share = len(ids) == 2
		return !share
	})
	return share
}

// TestDeletionVariantSharing is the radius-1 correctness property: two
// projections share the exact key or a deletion-variant key iff their
// Hamming distance is ≤ 1 — at widths whose keys take one word, two, and
// several, where the variant's position needs more than 8 bits.
func TestDeletionVariantSharing(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 1 + rng.Intn([]int{12, 70, 600}[rng.Intn(3)])
		a, b := randomVector(rng, w), randomVector(rng, w)
		if rng.Intn(2) == 0 {
			// Near pairs: the radius-1 boundary is where the property bites.
			b = a.Clone()
			for range rng.Intn(3) {
				b.Flip(rng.Intn(w))
			}
		}
		return sharesKey(a, b) == (a.Hamming(b) <= 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// A position kept in a byte wraps at 256: the variant deleting 10 of
	// one projection would be the variant deleting 266 of the other.
	a := bitvec.New(300)
	a.Set(10)
	b := bitvec.New(300)
	b.Set(266)
	if sharesKey(a, b) {
		t.Fatal("projections at distance 2, differing at dimensions 10 and 266, share a key")
	}
}

func TestCollectRadius1(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, w := range []int{8, 58, 59, 64, 70, 300} {
		const n = 60
		sigs := make([]bitvec.Vector, n)
		for i := range sigs {
			sigs[i] = randomVector(rng, w)
		}
		// Near neighbours of the first signature, so every answer occurs.
		for i := 1; i < 6; i++ {
			sigs[i] = sigs[0].Clone()
			for range i % 3 {
				sigs[i].Flip(rng.Intn(w))
			}
		}
		f := FreezeVariants(n, w, vectorRows(sigs))
		q := sigs[0].Clone()
		q.Flip(3)
		got := map[int32]bool{}
		var s Radius1Scratch
		f.Radius1(q.Words(), w, &s, func(e int) bool {
			return f.ForEachEntry(e, func(id int32) bool { got[id] = true; return true })
		})
		for i, v := range sigs {
			if want := q.Hamming(v) <= 1; got[int32(i)] != want {
				t.Fatalf("w=%d: sig %d at distance %d: collected=%v", w, i, q.Hamming(v), got[int32(i)])
			}
		}
	}
}

func TestDeletionVariantIndexSizeLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sigs := make([]bitvec.Vector, 200)
	for i := range sigs {
		sigs[i] = randomVector(rng, 10)
	}
	rows := vectorRows(sigs)
	vb, pb := FreezeVariants(len(sigs), 10, rows).SizeBytes(), FreezeRows(len(sigs), 1, 10, rows).SizeBytes()
	if vb <= pb*5 {
		t.Fatalf("deletion-variant index should be ~width× larger: %d vs %d", vb, pb)
	}
}
