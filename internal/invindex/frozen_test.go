package invindex

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"slices"
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

// randomRows returns n rows of width-bit projections as FreezeRows takes
// them — ⌈width/64⌉ words a row, no bit at or past width — drawn from a
// pool of n/5 + 1, so lists of several ids occur. Words differ in their
// high bytes as well as their low ones, so the little-endian byte order
// of a key, not its word order, has to decide where it sorts.
func randomRows(rng *rand.Rand, n, width int) []uint64 {
	w := (width + 63) / 64
	pool := make([][]uint64, 1+n/5)
	for i := range pool {
		pool[i] = make([]uint64, w)
		for k := range pool[i] {
			var word uint64
			switch rng.Intn(3) {
			case 0:
				word = uint64(rng.Intn(4))
			case 1:
				word = uint64(rng.Intn(4)) << 56
			default:
				word = rng.Uint64()
			}
			if k == w-1 && width%64 != 0 {
				if word &= 1<<(width%64) - 1; word == 0 {
					word = uint64(rng.Intn(2)) << (width%64 - 1)
				}
			}
			pool[i][k] = word
		}
	}
	rows := make([]uint64, 0, n*w)
	for range n {
		rows = append(rows, pool[rng.Intn(len(pool))]...)
	}
	return rows
}

// rowKey is row id's key as FreezeRows stores it: its words'
// little-endian bytes, KeyLen(width) of them.
func rowKey(rows []uint64, width int, id int) []byte {
	w := (width + 63) / 64
	var key []byte
	for _, word := range rows[id*w : (id+1)*w] {
		key = binary.LittleEndian.AppendUint64(key, word)
	}
	return key[:KeyLen(width)]
}

// TestFreezeRowsMatchesFreeze pins FreezeRows to the map build it
// replaces, fed each row's KeyLen(width)-byte key: the same bytes
// written, the same size and the same slot table, for widths from zero
// to three words — keys of every length from 0 to 8 bytes, and of 16 and
// 24.
func TestFreezeRowsMatchesFreeze(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, width := range []int{0, 1, 5, 8, 9, 13, 20, 28, 36, 45, 56, 57, 63, 64, 65, 128, 130, 192} {
		for _, n := range []int{0, 1, 7, 500} {
			rows := randomRows(rng, n, width)
			ix := New()
			for id := range n {
				ix.Add(string(rowKey(rows, width, id)), int32(id))
			}
			want, got := ix.Freeze(), FreezeRows(n, width, rows)
			if !bytes.Equal(frozenBytes(got), frozenBytes(want)) {
				t.Fatalf("width=%d n=%d: FreezeRows writes other bytes than Freeze", width, n)
			}
			if got.SizeBytes() != want.SizeBytes() || !equalIDs(got.slots, want.slots) {
				t.Fatalf("width=%d n=%d: size %d vs %d, or the slot tables differ", width, n, got.SizeBytes(), want.SizeBytes())
			}
		}
	}
}

// TestEveryKeyWidth: a partition of w ≤ 64 bits keeps ⌈w/8⌉-byte keys
// and the zero pad after them, a wider one whole words; at every width
// the lookups by word, by bytes, by string and in a batch find the same
// entry, the key scan and the histogram agree with brute force over the
// rows, the section round-trips through WriteTo and ReadFrozen, and
// SizeBytes is the serialized arenas plus the slot table.
func TestEveryKeyWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	widths := []int{65, 100, 128}
	for w := 1; w <= 64; w++ {
		widths = append(widths, w)
	}
	const n = 200
	for _, width := range widths {
		words := (width + 63) / 64
		rows := randomRows(rng, n, width)
		f := FreezeRows(n, width, rows)
		keyLen := 8 * words
		if width <= 64 {
			keyLen = (width + 7) / 8
		}
		if f.keyLen != keyLen || KeyLen(width) != keyLen {
			t.Fatalf("width %d: %d-byte keys (KeyLen %d), want %d", width, f.keyLen, KeyLen(width), keyLen)
		}
		pad := f.keyArena[keyLen*f.NumKeys():]
		if want := max(0, 8-keyLen); len(pad) != want || !bytes.Equal(pad, make([]byte, want)) {
			t.Fatalf("width %d: the keys are followed by % x, want %d zero bytes", width, pad, want)
		}

		// Lookups: every row's key, and keys no row has — one with a bit
		// past the width, which a word lookup must not find under the key
		// its low bytes spell.
		var batch []*Frozen
		var probes []uint64
		for id := range n + 50 {
			key := rowKey(rows, width, id%n)
			if id >= n {
				key[rng.Intn(len(key))] ^= byte(1) << rng.Intn(8)
			}
			e := f.lookupBytes(key)
			if id < n && e < 0 {
				t.Fatalf("width %d: row %d's key not found", width, id)
			}
			if s := f.lookupString(string(key)); s != e {
				t.Fatalf("width %d: key % x: bytes find %d, string %d", width, key, e, s)
			}
			if e >= 0 && !slices.Contains(f.appendList(e, nil), int32(id%n)) && id < n {
				t.Fatalf("width %d: row %d's key lists %v", width, id, f.appendList(e, nil))
			}
			if width > 64 {
				continue
			}
			var word [8]byte
			copy(word[:], key)
			k := binary.LittleEndian.Uint64(word[:])
			if got := f.lookupWord(k); got != e || hashWord(keyLen, k) != hashKey(key) {
				t.Fatalf("width %d: key %#x: word lookup %d, byte lookup %d, or the hashes differ", width, k, got, e)
			}
			if width < 64 {
				if got := f.lookupWord(k | 1<<width); got >= 0 {
					t.Fatalf("width %d: key %#x with bit %d set found as entry %d", width, k, width, got)
				}
				probes = append(probes, k|1<<width)
				batch = append(batch, f)
			}
			probes = append(probes, k)
			batch = append(batch, f)
		}
		if width <= 64 {
			entries, counts := make([]int32, len(batch)), make([]uint32, len(batch))
			LookupWords(batch, probes, entries, counts)
			for i, k := range probes {
				if e := f.lookupWord(k); int(entries[i]) != e || int(counts[i]) != f.count(e) {
					t.Fatalf("width %d: key %#x: batch entry %d count %d, word lookup %d count %d", width, k, entries[i], counts[i], e, f.count(e))
				}
			}
		}

		// The key scan and the histogram against the rows themselves.
		q := make([]uint64, words)
		copy(q, rows[rng.Intn(n)*words:])
		q[0] ^= 1 << rng.Intn(min(width, 64))
		dist := func(id int) int {
			d := 0
			for j := range q {
				d += bits.OnesCount64(rows[id*words+j] ^ q[j])
			}
			return d
		}
		hist := make([]int64, 64*words+1)
		f.Histogram(q, hist)
		want := make([]int64, len(hist))
		for id := range n {
			want[dist(id)]++
		}
		if !slices.Equal(hist, want) {
			t.Fatalf("width %d: histogram %v, the rows' distances %v", width, hist, want)
		}
		for _, radius := range []int{0, 1, 2, width / 2, width} {
			set := IDSet{Seen: make([]uint64, (n+63)/64)}
			sum := f.CollectWithin(q, radius, &set)
			var ids []int32
			for id := range n {
				if dist(id) <= radius {
					ids = append(ids, int32(id))
				}
			}
			slices.Sort(set.IDs)
			if sum != int64(len(ids)) || !slices.Equal(set.IDs, ids) {
				t.Fatalf("width %d radius %d: the scan decoded %d postings into %v, the rows say %v", width, radius, sum, set.IDs, ids)
			}
		}

		// The section, written and read back, is the same section.
		raw := frozenBytes(f)
		g, err := ReadFrozen(binio.NewReader(bytes.NewReader(raw)), n)
		if err == nil {
			// ReadFrozen validated at no width; the width check alone.
			err = g.validateContent(width)
		}
		if err != nil {
			t.Fatalf("width %d: the written section is rejected: %v", width, err)
		}
		if !bytes.Equal(frozenBytes(g), raw) || g.SizeBytes() != f.SizeBytes() {
			t.Fatalf("width %d: the section read back writes other bytes, or sizes %d against %d", width, g.SizeBytes(), f.SizeBytes())
		}
		kb, pb, ob, sb := f.ArenaBreakdown()
		align := func(x int64) int64 { return (x + 7) &^ 7 }
		serialized := align(align(5*8+kb+pb)+4*int64(f.NumKeys()+1)) + 4*int64(f.NumKeys())
		if int64(len(raw)) != serialized || f.SizeBytes() != kb+pb+ob+sb+frozenStructBytes || sb != 4*int64(len(f.slots)) {
			t.Fatalf("width %d: %d bytes written, %d from the arenas; SizeBytes %d, arenas and slots %d",
				width, len(raw), serialized, f.SizeBytes(), kb+pb+ob+sb+frozenStructBytes)
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
