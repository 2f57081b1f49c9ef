package invindex

import (
	"bytes"
	"math/rand"
	"testing"

	"gph/internal/binio"
	"gph/internal/bitvec"
)

// randomIndex builds a map index over n random w-dim signatures,
// optionally with deletion variants, returning the index and the
// signatures. Ids are inserted in ascending order, as every real
// build path does.
func randomIndex(t *testing.T, seed int64, n, w int, variants bool) (*Index, []bitvec.Vector) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ix := New()
	sigs := make([]bitvec.Vector, n)
	for i := range sigs {
		v := bitvec.New(w)
		for d := 0; d < w; d++ {
			if rng.Intn(2) == 1 {
				v.Set(d)
			}
		}
		sigs[i] = v
		if variants {
			ix.AddWithDeletionVariants(v, int32(i))
		} else {
			ix.Add(v.Key(), int32(i))
		}
	}
	return ix, sigs
}

// TestFrozenMatchesMap is the differential guarantee behind the
// frozen rollout: for random builds — including deletion-variant
// keys — the frozen index returns identical postings for every key
// the map form holds, reports identical aggregate counts, and misses
// keys the map misses.
func TestFrozenMatchesMap(t *testing.T) {
	for _, variants := range []bool{false, true} {
		for seed := int64(0); seed < 5; seed++ {
			ix, _ := randomIndex(t, seed, 80, 6+int(seed), variants)
			f := ix.Freeze()
			if f.NumKeys() != ix.DistinctKeys() || f.TotalPostings() != ix.TotalPostings() {
				t.Fatalf("variants=%v seed=%d: keys %d/%d postings %d/%d", variants, seed,
					f.NumKeys(), ix.DistinctKeys(), f.TotalPostings(), ix.TotalPostings())
			}
			seen := 0
			ix.Range(func(key string, want []int32) bool {
				seen++
				got := f.Postings(key)
				if !equalIDs(got, want) {
					t.Fatalf("variants=%v seed=%d key %q: frozen %v, map %v", variants, seed, key, got, want)
				}
				if f.PostingLen(key) != len(want) || f.PostingLenBytes([]byte(key)) != len(want) {
					t.Fatalf("PostingLen mismatch for %q", key)
				}
				var viaBytes []int32
				viaBytes = f.AppendPostingsBytes([]byte(key), viaBytes)
				if !equalIDs(viaBytes, want) {
					t.Fatalf("AppendPostingsBytes %v != %v", viaBytes, want)
				}
				var viaFn []int32
				f.ForEachPosting(key, func(id int32) bool { viaFn = append(viaFn, id); return true })
				if !equalIDs(viaFn, want) {
					t.Fatalf("ForEachPosting %v != %v", viaFn, want)
				}
				return true
			})
			if seen != f.NumKeys() {
				t.Fatalf("map holds %d keys, frozen %d", seen, f.NumKeys())
			}
			missing := "no such key"
			if f.Postings(missing) != nil || f.PostingLen(missing) != 0 ||
				len(f.AppendPostingsBytes([]byte(missing), nil)) != 0 {
				t.Fatal("frozen answered a key the map never held")
			}
		}
	}
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

// TestFrozenRadius1MatchesMap checks the deletion-variant probe path:
// the frozen CollectRadius1 visits exactly the ids the map form
// visits (same multiset — duplicates across variant keys included), and
// a callback that returns false is not called again, on either form.
func TestFrozenRadius1MatchesMap(t *testing.T) {
	ix, sigs := randomIndex(t, 11, 70, 8, true)
	f := ix.Freeze()
	for _, q := range sigs[:10] {
		probe := q.Clone()
		probe.Flip(2)
		count := func(collect func(bitvec.Vector, func(int32) bool), stopAfter int) (map[int32]int, int) {
			m, calls := map[int32]int{}, 0
			collect(probe, func(id int32) bool { m[id]++; calls++; return calls != stopAfter })
			return m, calls
		}
		want, total := count(ix.CollectRadius1, 0)
		got, _ := count(f.CollectRadius1, 0)
		if len(got) != len(want) {
			t.Fatalf("radius-1 visited %d ids, map %d", len(got), len(want))
		}
		for id, n := range want {
			if got[id] != n {
				t.Fatalf("id %d visited %d times, map %d", id, got[id], n)
			}
		}
		for _, stopAfter := range []int{1, total / 2, total} {
			if stopAfter == 0 {
				continue
			}
			_, frozenCalls := count(f.CollectRadius1, stopAfter)
			_, mapCalls := count(ix.CollectRadius1, stopAfter)
			if frozenCalls != stopAfter || mapCalls != stopAfter {
				t.Fatalf("a probe stopped at posting %d of %d went on to %d (frozen), %d (map)", stopAfter, total, frozenCalls, mapCalls)
			}
		}
	}
}

// TestFrozenRoundTrip pins the persistence contract: WriteTo→ReadFrozen
// reproduces the postings, and re-serializing the loaded form is
// byte-identical.
func TestFrozenRoundTrip(t *testing.T) {
	ix, _ := randomIndex(t, 3, 90, 9, true)
	f := ix.Freeze()
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	f.WriteTo(bw)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), buf.Bytes()...)

	g, err := ReadFrozen(binio.NewReader(&buf), 90)
	if err != nil {
		t.Fatal(err)
	}
	ix.Range(func(key string, want []int32) bool {
		if got := g.Postings(key); !equalIDs(got, want) {
			t.Fatalf("key %q: loaded %v, want %v", key, got, want)
		}
		return true
	})

	var again bytes.Buffer
	bw = binio.NewWriter(&again)
	g.WriteTo(bw)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again.Bytes()) {
		t.Fatal("save→load→save is not byte-identical")
	}
}

// TestReadFrozenRejectsCorruption feeds ReadFrozen out-of-range ids
// and broken framing; both must fail cleanly instead of producing an
// index that panics at query time.
func TestReadFrozenRejectsCorruption(t *testing.T) {
	ix, _ := randomIndex(t, 4, 50, 7, false)
	f := ix.Freeze()
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	f.WriteTo(bw)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrozen(binio.NewReader(bytes.NewReader(buf.Bytes())), 10); err == nil {
		t.Fatal("ReadFrozen accepted ids beyond maxID")
	}
	raw := buf.Bytes()
	trunc := raw[:len(raw)-3]
	if _, err := ReadFrozen(binio.NewReader(bytes.NewReader(trunc)), 50); err == nil {
		t.Fatal("ReadFrozen accepted a truncated stream")
	}
}

// TestFrozenSizeBytesMatchesSerialized is the honesty bound behind
// Fig. 6: the exact resident accounting must agree with the
// serialized footprint up to the parts that are deliberately not
// persisted — the slot table (rebuilt on load) and a small constant
// of length prefixes and struct headers.
func TestFrozenSizeBytesMatchesSerialized(t *testing.T) {
	for _, variants := range []bool{false, true} {
		ix, _ := randomIndex(t, 9, 300, 10, variants)
		f := ix.Freeze()
		var buf bytes.Buffer
		bw := binio.NewWriter(&buf)
		f.WriteTo(bw)
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		// Resident-only parts: the slot table plus the fixed struct
		// overhead. Serialized-only parts: at most eight 8-byte
		// length/count prefixes. Everything else must match exactly.
		bound := 4*int64(len(f.slots)) + frozenStructBytes + 8*8
		diff := f.SizeBytes() - int64(buf.Len())
		if diff < 0 {
			diff = -diff
		}
		if diff > bound {
			t.Fatalf("variants=%v: SizeBytes %d vs serialized %d differ by %d, bound %d",
				variants, f.SizeBytes(), buf.Len(), diff, bound)
		}
	}
}

// TestFrozenSmallerThanMapEstimate asserts the point of the posting
// layout on a postings-heavy (PubChem-like skewed) workload: dense
// ascending lists delta-encode to about a byte per posting, well under
// the 4 bytes the build-time map's []int32 lists spend.
func TestFrozenSmallerThanMapEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ix := New()
	// Skewed: few distinct signatures, long posting lists — the regime
	// where posting bytes dominate and delta-varint pays off most.
	keys := make([]string, 8)
	for i := range keys {
		v := bitvec.New(16)
		for d := 0; d < 16; d++ {
			if rng.Intn(2) == 1 {
				v.Set(d)
			}
		}
		keys[i] = v.Key()
	}
	for id := int32(0); id < 20000; id++ {
		ix.Add(keys[rng.Intn(len(keys))], id)
	}
	f := ix.Freeze()
	_, postBytes, _, _ := f.ArenaBreakdown()
	if postBytes*2 > 4*f.TotalPostings() {
		t.Fatalf("postings arena %d should be ≥2× under 4 B/posting (%d)", postBytes, 4*f.TotalPostings())
	}
}

// TestFrozenEmpty covers the zero-key edge: lookups miss, iteration
// is empty, round-trip works.
func TestFrozenEmpty(t *testing.T) {
	f := New().Freeze()
	if f.NumKeys() != 0 || f.TotalPostings() != 0 {
		t.Fatal("empty freeze not empty")
	}
	if f.Postings("x") != nil || f.PostingLenBytes([]byte{0}) != 0 {
		t.Fatal("empty frozen answered a key")
	}
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	f.WriteTo(bw)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrozen(binio.NewReader(&buf), 1); err != nil {
		t.Fatal(err)
	}
}

// TestFreezeRowsMatchesFreeze pins FreezeRows to the map build it
// replaces: the same bytes written, the same size and the same slot
// table, for rows of zero to three words. Keys are drawn from a small
// pool, so lists of several ids occur, and words differ in their high
// bytes as well as their low ones, so the little-endian byte order of a
// key, not its word order, has to decide where it sorts.
func TestFreezeRowsMatchesFreeze(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	word := func() uint64 {
		switch rng.Intn(3) {
		case 0:
			return uint64(rng.Intn(4))
		case 1:
			return uint64(rng.Intn(4)) << 56
		}
		return rng.Uint64()
	}
	for _, w := range []int{0, 1, 2, 3} {
		for _, n := range []int{0, 1, 7, 500} {
			pool := make([][]uint64, 1+n/5)
			for i := range pool {
				pool[i] = make([]uint64, w)
				for k := range pool[i] {
					pool[i][k] = word()
				}
			}
			rows := make([]uint64, 0, n*w)
			ix := New()
			for id := range n {
				row := pool[rng.Intn(len(pool))]
				rows = append(rows, row...)
				ix.Add(bitvec.FromWordsSharedUnchecked(64*w, row).Key(), int32(id))
			}
			want, got := ix.Freeze(), FreezeRows(n, w, rows)
			if !bytes.Equal(frozenBytes(got), frozenBytes(want)) {
				t.Fatalf("w=%d n=%d: FreezeRows writes other bytes than Freeze", w, n)
			}
			if got.SizeBytes() != want.SizeBytes() || !equalIDs(got.slots, want.slots) {
				t.Fatalf("w=%d n=%d: size %d vs %d, or the slot tables differ", w, n, got.SizeBytes(), want.SizeBytes())
			}
		}
	}
}

// TestFreezeSortsUnsortedLists documents that Freeze normalizes
// posting order: callers that insert out of order still get ascending
// postings (delta encoding requires it).
func TestFreezeSortsUnsortedLists(t *testing.T) {
	ix := New()
	ix.Add("k", 9)
	ix.Add("k", 2)
	ix.Add("k", 5)
	got := ix.Freeze().Postings("k")
	if !equalIDs(got, []int32{2, 5, 9}) {
		t.Fatalf("postings %v, want sorted", got)
	}
}
