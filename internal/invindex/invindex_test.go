package invindex

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"gph/internal/bitvec"
)

func TestAddAndPostings(t *testing.T) {
	ix := New()
	ix.Add("a", 1)
	ix.Add("a", 2)
	ix.Add("b", 3)
	if got := ix.Postings("a"); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("postings(a) = %v", got)
	}
	if ix.PostingLen("b") != 1 || ix.PostingLen("missing") != 0 {
		t.Fatal("PostingLen wrong")
	}
	if ix.DistinctKeys() != 2 || ix.TotalPostings() != 3 {
		t.Fatalf("distinct=%d total=%d", ix.DistinctKeys(), ix.TotalPostings())
	}
}

func TestSortedKeys(t *testing.T) {
	ix := New()
	for _, k := range []string{"zz", "aa", "mm"} {
		ix.Add(k, 0)
	}
	keys := ix.SortedKeys()
	if !sort.StringsAreSorted(keys) || len(keys) != 3 {
		t.Fatalf("SortedKeys = %v", keys)
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
	ix.Add("a", 1)
	ix.Add("b", 2)
	visits := 0
	ix.Range(func(string, []int32) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Fatalf("Range visited %d after stop", visits)
	}
}

// TestDeletionVariantSharing is the radius-1 correctness property:
// two signatures share the exact key or a deletion-variant key iff
// their Hamming distance is ≤ 1.
func TestDeletionVariantSharing(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 2 + rng.Intn(12)
		a, b := bitvec.New(w), bitvec.New(w)
		for i := 0; i < w; i++ {
			if rng.Intn(2) == 1 {
				a.Set(i)
			}
			if rng.Intn(2) == 1 {
				b.Set(i)
			}
		}
		keys := func(v bitvec.Vector) map[string]bool {
			m := map[string]bool{v.Key(): true}
			for j := 0; j < w; j++ {
				m[DeletionVariantKey(v, j)] = true
			}
			return m
		}
		ka, kb := keys(a), keys(b)
		share := false
		for k := range ka {
			if kb[k] {
				share = true
				break
			}
		}
		return share == (a.Hamming(b) <= 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectRadius1(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const w, n = 8, 60
	sigs := make([]bitvec.Vector, n)
	ix := New()
	for i := range sigs {
		v := bitvec.New(w)
		for d := 0; d < w; d++ {
			if rng.Intn(2) == 1 {
				v.Set(d)
			}
		}
		sigs[i] = v
		ix.AddWithDeletionVariants(v, int32(i))
	}
	q := sigs[0].Clone()
	q.Flip(3)
	got := map[int32]bool{}
	ix.CollectRadius1(q, func(id int32) bool { got[id] = true; return true })
	for i, v := range sigs {
		want := q.Hamming(v) <= 1
		if got[int32(i)] != want {
			t.Fatalf("sig %d at distance %d: collected=%v", i, q.Hamming(v), got[int32(i)])
		}
	}
}

func TestDeletionVariantIndexSizeLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	plain, variant := New(), New()
	for i := int32(0); i < 200; i++ {
		v := bitvec.New(10)
		for d := 0; d < 10; d++ {
			if rng.Intn(2) == 1 {
				v.Set(d)
			}
		}
		plain.Add(v.Key(), i)
		variant.AddWithDeletionVariants(v, i)
	}
	vb, pb := variant.Freeze().SizeBytes(), plain.Freeze().SizeBytes()
	if vb <= pb*5 {
		t.Fatalf("deletion-variant index should be ~width× larger: %d vs %d", vb, pb)
	}
}
