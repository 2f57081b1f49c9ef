package invindex

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"gph/internal/binio"
	"gph/internal/bitvec"
)

// fuzzCorpusIndex serializes a small frozen index for the seed
// corpus: n random w-dim signatures, one key each or with their
// deletion variants, written exactly as the persistence path writes
// them.
func fuzzCorpusIndex(seed int64, n, w int, variants bool) []byte {
	rng := rand.New(rand.NewSource(seed))
	sigs := make([]bitvec.Vector, n)
	for i := range sigs {
		sigs[i] = randomVector(rng, w)
	}
	if variants {
		return frozenBytes(FreezeVariants(n, w, vectorRows(sigs)))
	}
	return frozenBytes(FreezeRows(n, 1, w, vectorRows(sigs)))
}

// frozenBytes serializes f exactly as the persistence path writes it.
func frozenBytes(f *Frozen) []byte {
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	f.WriteTo(bw)
	if err := bw.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzReadFrozen hammers the frozen-postings decoder with corrupt
// bytes: it must never panic, its content tier must give the verdict
// the reference gives, and any input it accepts must be a
// self-consistent index — ids in range, delta lists nondecreasing,
// every key findable, counts honest — whose canonical
// re-serialization round-trips byte-identically.
func FuzzReadFrozen(f *testing.F) {
	f.Add([]byte{}, int32(0))
	f.Add(fuzzCorpusIndex(1, 40, 8, false), int32(40))
	f.Add(fuzzCorpusIndex(2, 30, 9, true), int32(30))
	f.Add(fuzzCorpusIndex(3, 1, 1, false), int32(1))
	// A valid stream judged against the wrong collection size: every
	// posting is suddenly out of range.
	f.Add(fuzzCorpusIndex(4, 25, 6, false), int32(5))
	// Truncated and bit-flipped variants of a valid stream.
	whole := fuzzCorpusIndex(5, 20, 7, false)
	f.Add(whole[:len(whole)/2], int32(20))
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped, int32(20))
	// Keys as narrow as their partition, as a GPH build freezes them: 1,
	// 2 and 5 bytes and the pad after them.
	rng := rand.New(rand.NewSource(6))
	for _, width := range []int{3, 13, 36} {
		f.Add(frozenBytes(FreezeRows(30, 1, width, randomRows(rng, 30, width))), int32(30))
	}

	// Keys of 64 bits, some with their top bit set: remainders of a whole
	// word.
	stray := New()
	for id, key := range []string{"\x05\x00\x00\x00\x00\x00\x00\x00", "\x05\x00\x00\x00\x00\x00\x00\x80", "\x07\xff\xff\xff\xff\xff\xff\xff"} {
		stray.Add(key, int32(id))
	}
	f.Add(frozenBytes(stray.Freeze()), int32(3))

	// What the content tier's one-word fast path could get wrong and a
	// byte-at-a-time loop would not (validate_test.go).
	for _, s := range fastPathSeeds() {
		f.Add(s.data, s.maxID)
	}
	// Refs and counts wider than their numbers, a ref pad byte set, widths
	// out of range.
	for _, s := range entryWidthSeeds() {
		f.Add(s.data, s.maxID)
	}
	// Directories that descend, start past 0 or end off the key count; a
	// remainder bit past its width; two equal remainders in one bucket; a
	// header width that is not the keys'.
	for _, s := range hostileSeeds() {
		f.Add(s.data, s.maxID)
	}
	// Bitmaps: valid ones of 1 to 32 bytes, and ones holding a key more or
	// fewer than their entries, one in the pad, a wrong rank entry, of
	// lengths no bitmap of their width has, of a layout of neither kind.
	for _, width := range []int{2, 6, 8} {
		f.Add(frozenBytes(freezeRows(30, 1, width, randomRows(rng, 30, width), bitmapLayout)), int32(30))
	}
	for _, s := range bitmapSeeds() {
		f.Add(s.data, s.maxID)
	}
	// Keys out of order inside a bucket, in both layouts, and a key in a
	// bucket its hash does not name.
	for _, s := range bucketOrderSeeds() {
		f.Add(s.data, s.maxID)
	}

	f.Fuzz(func(t *testing.T, data []byte, maxID int32) {
		// The content tier against its reference.
		sameVerdict(t, data, maxID, "fuzz input")

		fr, err := ReadFrozen(binio.NewReader(bytes.NewReader(data)), maxID)
		if err != nil {
			return
		}
		var total int64
		var prevKey []byte
		fr.Range(func(key []byte, ids []int32) bool {
			if prevKey != nil && bytes.Compare(prevKey, key) >= 0 {
				t.Fatalf("accepted keys not strictly sorted: %q after %q", key, prevKey)
			}
			prevKey = append(prevKey[:0], key...)
			prev := int32(-1)
			for _, id := range ids {
				if id < 0 || id >= maxID {
					t.Fatalf("accepted posting %d outside [0,%d)", id, maxID)
				}
				if id < prev {
					t.Fatalf("accepted list not nondecreasing: %d after %d", id, prev)
				}
				prev = id
			}
			if got := fr.PostingLenBytes(key); got != len(ids) {
				t.Fatalf("key %q: lookup sees %d postings, Range yielded %d", key, got, len(ids))
			}
			total += int64(len(ids))
			return true
		})
		if total != fr.TotalPostings() {
			t.Fatalf("lists hold %d postings, TotalPostings says %d", total, fr.TotalPostings())
		}
		checkKeyScan(t, fr)
		// An accepted index must survive its own canonical
		// serialization, and that form must be a fixed point.
		var first bytes.Buffer
		bw := binio.NewWriter(&first)
		fr.WriteTo(bw)
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		re, err := ReadFrozen(binio.NewReader(bytes.NewReader(first.Bytes())), maxID)
		if err != nil {
			t.Fatalf("re-serialized accepted index rejected: %v", err)
		}
		var second bytes.Buffer
		bw = binio.NewWriter(&second)
		re.WriteTo(bw)
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("re-serialization is not a fixed point")
		}
	})
}

// checkKeyScan holds the key-scan kernels to Range on an accepted index
// whose keys take at most a word or a whole number of words: at radius
// 0, 1 and the whole space around the first key, CollectWithin gathers
// exactly the ids of the keys Range shows within that distance, and
// counts their postings; Histogram counts the postings Range shows at
// every distance.
func checkKeyScan(t *testing.T, fr *Frozen) {
	keyLen := fr.KeyLen()
	if keyLen == 0 || (keyLen > 8 && keyLen%8 != 0) {
		return
	}
	q := make([]uint64, (keyLen+7)/8)
	maxSeen := int32(-1)
	fr.Range(func(key []byte, ids []int32) bool {
		if maxSeen < 0 {
			var first [8]byte
			for j := range q {
				copy(first[:], key[8*j:])
				q[j] = binary.LittleEndian.Uint64(first[:])
			}
		}
		for _, id := range ids {
			maxSeen = max(maxSeen, id)
		}
		return true
	})
	wantHist := make([]int64, 64*len(q)+1)
	fr.Range(func(key []byte, ids []int32) bool {
		wantHist[keyDistance(key, q)] += int64(len(ids))
		return true
	})
	hist := make([]int64, len(wantHist))
	fr.Histogram(q, hist)
	if !slices.Equal(hist, wantHist) {
		t.Fatalf("histogram %v, Range shows %v", hist, wantHist)
	}
	for _, radius := range []int{0, 1, 8 * keyLen} {
		want := map[int32]bool{}
		var wantSum int64
		fr.Range(func(key []byte, ids []int32) bool {
			if keyDistance(key, q) <= radius {
				wantSum += int64(len(ids))
				for _, id := range ids {
					want[id] = true
				}
			}
			return true
		})
		set := IDSet{Seen: make([]uint64, maxSeen/64+1)}
		if sum := fr.CollectWithin(q, radius, &set); sum != wantSum {
			t.Fatalf("radius %d: scan decoded %d postings, Range shows %d", radius, sum, wantSum)
		}
		if len(set.IDs) != len(want) {
			t.Fatalf("radius %d: scan gathered %d ids, Range shows %d", radius, len(set.IDs), len(want))
		}
		for _, id := range set.IDs {
			if !want[id] {
				t.Fatalf("radius %d: scan gathered id %d, which no key within the radius posts", radius, id)
			}
		}
	}
}

// bruteHistogram is Histogram's oracle: for every distance from q, the
// postings of the keys in rows (n ids of per keys, width bits each)
// that lie at that distance, each key read as len(q) words.
func bruteHistogram(n, per, width int, rows, q []uint64) []int64 {
	hist := make([]int64, 64*len(q)+1)
	for key, ids := range refPostings(n, per, width, rows) {
		hist[keyDistance([]byte(key), q)] += int64(len(ids))
	}
	return hist
}

// FuzzFreezeRows holds the one builder to brute force over (n, per,
// width, rows): the index it freezes is of width bits and passes its
// content tier, every key recovered from what it stores is one the rows
// hold and is found where it lies, it lists under every key exactly the
// ids that have it, ascending and once each, holds no other key, and
// gives the histogram the keys themselves give —
// in memory and read back from its bytes — and its keys take the fewer
// bytes of the two layouts (keys or bitmap, and directory or rank array;
// checked up to 20 bits). The rows are the input's bytes read as words,
// round and round: a short input repeats keys, a long one spreads them.
func FuzzFreezeRows(f *testing.F) {
	f.Add(uint8(5), uint8(1), uint16(13), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(30), uint8(4), uint16(64), []byte("a handful of key bytes, some of them repeated"))
	f.Add(uint8(7), uint8(3), uint16(130), []byte{0xff})
	f.Add(uint8(9), uint8(2), uint16(0), []byte{})
	f.Add(uint8(40), uint8(9), uint16(61), bytes.Repeat([]byte{0, 1, 0x80}, 40))
	f.Fuzz(func(t *testing.T, n8, per8 uint8, width16 uint16, data []byte) {
		n, per, width := int(n8)%65, 1+int(per8)%8, int(width16)%200
		words := (width + 63) / 64
		rows := make([]uint64, n*per*words)
		if len(data) > 0 {
			for i := range rows {
				var word [8]byte
				for b := range word {
					word[b] = data[(8*i+b)%len(data)]
				}
				rows[i] = binary.LittleEndian.Uint64(word[:])
				if i%words == words-1 && width%64 != 0 {
					rows[i] &= 1<<(width%64) - 1
				}
			}
		}
		fr := FreezeRows(n, per, width, rows)
		if err := fr.Validate(); err != nil || fr.Width() != width {
			t.Fatalf("n=%d per=%d width=%d: the frozen index of %d bits fails its content tier: %v", n, per, width, fr.Width(), err)
		}
		// Every key recovered from what the index stores is a key the rows
		// hold, and is found where it lies.
		ref := refPostings(n, per, width, rows)
		keys := fr.keyBytes()
		for e := range fr.NumKeys() {
			key := keys[e*fr.keyLen : (e+1)*fr.keyLen]
			if _, ok := ref[string(key)]; !ok || fr.lookupBytes(key) != e {
				t.Fatalf("n=%d per=%d width=%d: entry %d holds key % x, which the rows hold %v, found as entry %d", n, per, width, e, key, ok, fr.lookupBytes(key))
			}
		}
		if width >= 1 && width <= 20 {
			other := hashLayout
			if !fr.bitmap {
				other = bitmapLayout
			}
			lookupBytes := func(f *Frozen) int64 {
				keys, _, _, dir := f.ArenaBreakdown()
				return keys + dir
			}
			got, alt := lookupBytes(fr), lookupBytes(freezeRows(n, per, width, rows, other))
			if fr.bitmap && got >= alt || !fr.bitmap && got > alt {
				t.Fatalf("n=%d per=%d width=%d: bitmap %v takes %d bytes to find a key, the other layout %d", n, per, width, fr.bitmap, got, alt)
			}
		}
		read, err := ReadFrozen(binio.NewReader(bytes.NewReader(frozenBytes(fr))), int32(n))
		if err != nil {
			t.Fatalf("n=%d per=%d width=%d: the written index is rejected: %v", n, per, width, err)
		}
		q := make([]uint64, words)
		if len(rows) > 0 {
			copy(q, rows[len(rows)-words:])
			q[0] ^= uint64(len(data))
		}
		want := bruteHistogram(n, per, width, rows, q)
		for _, g := range []*Frozen{fr, read} {
			keys := 0
			g.Range(func(key []byte, ids []int32) bool {
				if !slices.Equal(ids, ref[string(key)]) {
					t.Fatalf("n=%d per=%d width=%d: key % x lists %v, the rows give %v", n, per, width, key, ids, ref[string(key)])
				}
				keys++
				return true
			})
			if keys != len(ref) || g.NumKeys() != len(ref) {
				t.Fatalf("n=%d per=%d width=%d: %d keys (Range shows %d), the rows have %d", n, per, width, g.NumKeys(), keys, len(ref))
			}
			for key, ids := range ref {
				if got := g.AppendPostingsBytes([]byte(key), nil); !slices.Equal(got, ids) {
					t.Fatalf("n=%d per=%d width=%d: key % x looked up lists %v, want %v", n, per, width, key, got, ids)
				}
			}
			hist := make([]int64, len(want))
			g.Histogram(q, hist)
			if !slices.Equal(hist, want) {
				t.Fatalf("n=%d per=%d width=%d: histogram %v, the rows give %v", n, per, width, hist, want)
			}
		}
	})
}
