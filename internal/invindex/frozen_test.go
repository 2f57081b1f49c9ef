package invindex

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"gph/internal/binio"
	"gph/internal/bitvec"
)

// randomIndex freezes n random w-dim signatures, one key each or with
// their deletion variants, and returns the index, its key width and its
// rows: per keys an id of ⌈width/64⌉ words, as FreezeRows took them.
func randomIndex(t *testing.T, seed int64, n, w int, variants bool) (f *Frozen, width, per int, rows []uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sigs := make([]bitvec.Vector, n)
	for i := range sigs {
		sigs[i] = randomVector(rng, w)
	}
	proj := vectorRows(sigs)
	if !variants {
		return FreezeRows(n, 1, w, proj), w, 1, proj
	}
	// The keys FreezeVariants freezes: each projection, then its variants.
	width, per = variantWidth(w), w+1
	pw, kw := (w+63)/64, (width+63)/64
	rows = make([]uint64, n*per*kw)
	for id := range n {
		keys := rows[id*per*kw : (id+1)*per*kw]
		copy(keys[:kw], proj[id*pw:(id+1)*pw])
		for j := range w {
			setVariant(keys[(j+1)*kw:(j+2)*kw], keys[:kw], w, j)
		}
	}
	return FreezeVariants(n, w, proj), width, per, rows
}

// refPostings is the map a build used to fill: each key of rows, as
// FreezeRows stores it, to the ids that have it, ascending, once each.
func refPostings(n, per, width int, rows []uint64) map[string][]int32 {
	post := map[string][]int32{}
	for k := range n * per {
		key := string(rowKey(rows, width, k))
		if ids := post[key]; len(ids) == 0 || ids[len(ids)-1] != int32(k/per) {
			post[key] = append(ids, int32(k/per))
		}
	}
	return post
}

// TestFrozenMatchesMap is the differential guarantee behind the frozen
// layout: for random builds — including deletion-variant keys — the
// frozen index returns, by every lookup form, the postings a map from
// each key to its ids holds, reports the same counts, and misses keys the
// map misses.
func TestFrozenMatchesMap(t *testing.T) {
	for _, variants := range []bool{false, true} {
		for seed := int64(0); seed < 5; seed++ {
			f, width, per, rows := randomIndex(t, seed, 80, 6+int(seed), variants)
			ref := refPostings(80, per, width, rows)
			total := 0
			for _, ids := range ref {
				total += len(ids)
			}
			if f.NumKeys() != len(ref) || f.TotalPostings() != int64(total) {
				t.Fatalf("variants=%v seed=%d: keys %d/%d postings %d/%d", variants, seed,
					f.NumKeys(), len(ref), f.TotalPostings(), total)
			}
			for key, want := range ref {
				var word [8]byte
				copy(word[:], key)
				e := f.lookupWord(binary.LittleEndian.Uint64(word[:]))
				var viaFn []int32
				f.ForEachEntry(e, func(id int32) bool { viaFn = append(viaFn, id); return true })
				if got := f.AppendPostingsBytes([]byte(key), nil); !slices.Equal(got, want) || !slices.Equal(viaFn, want) {
					t.Fatalf("variants=%v seed=%d key %q: frozen %v and %v, map %v", variants, seed, key, got, viaFn, want)
				}
				if f.PostingLenBytes([]byte(key)) != len(want) || f.EntryLen(e) != len(want) {
					t.Fatalf("posting length mismatch for %q", key)
				}
			}
			missing := []byte("no such key")
			if f.PostingLenBytes(missing) != 0 || len(f.AppendPostingsBytes(missing, nil)) != 0 {
				t.Fatal("frozen answered a key the map never held")
			}
		}
	}
}

// TestFrozenRadius1MatchesMap checks the deletion-variant probe path:
// Radius1 visits exactly the ids the map holds under the probe's w + 1
// keys (same multiset — duplicates across variant keys included), and a
// probe whose visitor returns false is not called again.
func TestFrozenRadius1MatchesMap(t *testing.T) {
	for _, w := range []int{8, 61} {
		f, width, per, rows := randomIndex(t, 11, 70, w, true)
		ref := refPostings(70, per, width, rows)
		kw := (width + 63) / 64
		for id := range 10 {
			// A probe one bit from a stored projection: its exact key with
			// bit 2 flipped, and that key's variants.
			q := slices.Clone(rows[id*per*kw : (id*per+1)*kw])
			q[0] ^= 1 << 2
			keys := slices.Clone(q)
			for j := range w {
				keys = append(keys, make([]uint64, kw)...)
				setVariant(keys[len(keys)-kw:], q, w, j)
			}
			want, total := map[int32]int{}, 0
			for k := range w + 1 {
				for _, id := range ref[string(rowKey(keys, width, k))] {
					want[id]++
					total++
				}
			}
			count := func(stopAfter int) (map[int32]int, int) {
				m, calls := map[int32]int{}, 0
				var s Radius1Scratch
				f.Radius1(q, w, &s, func(e int) bool {
					return f.ForEachEntry(e, func(id int32) bool { m[id]++; calls++; return calls != stopAfter })
				})
				return m, calls
			}
			if got, _ := count(0); len(got) != len(want) {
				t.Fatalf("w=%d: radius-1 visited %d ids, map %d", w, len(got), len(want))
			} else {
				for id, n := range want {
					if got[id] != n {
						t.Fatalf("w=%d: id %d visited %d times, map %d", w, id, got[id], n)
					}
				}
			}
			for _, stopAfter := range []int{1, total / 2, total} {
				if stopAfter == 0 {
					continue
				}
				if _, calls := count(stopAfter); calls != stopAfter {
					t.Fatalf("w=%d: a probe stopped at posting %d of %d went on to %d", w, stopAfter, total, calls)
				}
			}
		}
	}
}

// TestFrozenRoundTrip pins the persistence contract: WriteTo→ReadFrozen
// reproduces the postings, and re-serializing the loaded form is
// byte-identical.
func TestFrozenRoundTrip(t *testing.T) {
	f, width, per, rows := randomIndex(t, 3, 90, 9, true)
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
	for key, want := range refPostings(90, per, width, rows) {
		if got := g.AppendPostingsBytes([]byte(key), nil); !slices.Equal(got, want) {
			t.Fatalf("key %q: loaded %v, want %v", key, got, want)
		}
	}

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
	f, _, _, _ := randomIndex(t, 4, 50, 7, false)
	raw := frozenBytes(f)
	if _, err := ReadFrozen(binio.NewReader(bytes.NewReader(raw)), 10); err == nil {
		t.Fatal("ReadFrozen accepted ids beyond maxID")
	}
	trunc := raw[:len(raw)-3]
	if _, err := ReadFrozen(binio.NewReader(bytes.NewReader(trunc)), 50); err == nil {
		t.Fatal("ReadFrozen accepted a truncated stream")
	}
}

// TestFrozenSizeBytesMatchesSerialized is the honesty bound behind
// Fig. 6: the exact resident accounting must agree with the
// serialized footprint — every array, the directory included, is
// written — up to the struct on one side and the header's eight fields
// and at most one alignment padding on the other.
func TestFrozenSizeBytesMatchesSerialized(t *testing.T) {
	for _, variants := range []bool{false, true} {
		f, _, _, _ := randomIndex(t, 9, 300, 10, variants)
		raw := frozenBytes(f)
		resident, written := f.SizeBytes()-frozenStructBytes, int64(len(raw))-8*8
		if written < resident || written > resident+7 {
			t.Fatalf("variants=%v: SizeBytes %d less the struct, %d written less the header: more apart than the padding",
				variants, resident, written)
		}
	}
}

// TestFrozenSmallerThanMapEstimate asserts the point of the posting
// layout on a postings-heavy (PubChem-like skewed) workload: dense
// ascending lists delta-encode to about a byte per posting, well under
// the 4 bytes an []int32 list spends.
func TestFrozenSmallerThanMapEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Skewed: few distinct signatures, long posting lists — the regime
	// where posting bytes dominate and delta-varint pays off most.
	keys := wordKeys(rng, 8, 16)
	rows := make([]uint64, 20000)
	for id := range rows {
		rows[id] = keys[rng.Intn(len(keys))]
	}
	f := FreezeRows(len(rows), 1, 16, rows)
	_, postBytes, _, _ := f.ArenaBreakdown()
	if postBytes*2 > 4*f.TotalPostings() {
		t.Fatalf("postings arena %d should be ≥2× under 4 B/posting (%d)", postBytes, 4*f.TotalPostings())
	}
}

// TestFrozenEmpty covers the zero-key edge: lookups miss, iteration
// is empty, round-trip works — keys of no width and of some.
func TestFrozenEmpty(t *testing.T) {
	for _, f := range []*Frozen{New().Freeze(), FreezeRows(0, 1, 13, nil), FreezeRows(0, 3, 130, nil)} {
		if f.NumKeys() != 0 || f.TotalPostings() != 0 {
			t.Fatal("empty freeze not empty")
		}
		if f.PostingLenBytes([]byte{0}) != 0 || f.PostingLenWord(0) != 0 {
			t.Fatal("empty frozen answered a key")
		}
		if _, err := ReadFrozen(binio.NewReader(bytes.NewReader(frozenBytes(f))), 1); err != nil {
			t.Fatal(err)
		}
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

// rowKey is key k of rows as FreezeRows stores it: its words'
// little-endian bytes, KeyLen(width) of them.
func rowKey(rows []uint64, width int, k int) []byte {
	w := (width + 63) / 64
	var key []byte
	for _, word := range rows[k*w : (k+1)*w] {
		key = binary.LittleEndian.AppendUint64(key, word)
	}
	return key[:KeyLen(width)]
}

// mapFreeze is the build FreezeRows replaced: every key filled into a
// map of lists, the keys sorted by hash and as strings where two hashes
// tie, each list sorted and laid out behind its key, and the section
// passed by the content tier.
func mapFreeze(n, per, width int, rows []uint64) *Frozen {
	post := refPostings(n, per, width, rows)
	keys := make([]string, 0, len(post))
	for k := range post {
		keys = append(keys, k)
	}
	f := layOut(width, int32(n), hashOrder(width, keys), post)
	if err := f.Validate(); err != nil {
		panic(err)
	}
	return f
}

// layOut lays out the keys of lists, width-bit keys given as their
// bytes, in the order given, each with its ids, as FreezeRows lays out
// an entry in an index of maxID ids.
func layOut(width int, maxID int32, keys []string, lists map[string][]int32) *Frozen {
	posts := make([]post, len(keys))
	for e, k := range keys {
		ids := lists[k]
		posts[e] = post{ref: uint32(ids[0])}
		if len(ids) > 1 {
			deltas := make([]uint64, len(ids))
			prev := int32(0)
			for i, id := range ids {
				deltas[i], prev = uint64(id-prev), id
			}
			posts[e] = listOf(len(ids), deltas...)
		}
	}
	f := handSection(width, maxID, keys, posts, nil)
	f.keyArena = append(f.keyArena, make([]byte, keyPad(f.remLen, len(keys)))...)
	return f
}

// wordOf is the key of at most 8 bytes as its zero-extended word.
func wordOf(key string) uint64 {
	var w [8]byte
	copy(w[:], key)
	return binary.LittleEndian.Uint64(w[:])
}

// orderHash is the hash a section of width-bit keys orders key by: the
// quotient layout's of its word for 1 to 64 bits, hashKey's of its bytes
// otherwise.
func orderHash(width int, key string) uint64 {
	if quotientWidth(width) {
		return hashQuot(width, wordOf(key))
	}
	return hashKey([]byte(key))
}

// hashOrder returns keys, width-bit keys all of one length and distinct,
// in the order a frozen index holds them: by hash, then
// lexicographically.
func hashOrder(width int, keys []string) []string {
	sort.Strings(keys)
	sort.SliceStable(keys, func(i, j int) bool { return orderHash(width, keys[i]) < orderHash(width, keys[j]) })
	return keys
}

// TestFreezeRowsMatchesFreeze pins FreezeRows' hash layout to the map
// build it replaces, fed each key's KeyLen(width) bytes: the same bytes
// written, the same size and the same directory, for widths from zero to
// three words — keys of every length from 0 to 8 bytes, and of 16 and 24
// — and one, three or eleven keys an id. Where FreezeRows picks the
// bitmap, TestBitmapLayoutAgrees holds it to the hash layout.
func TestFreezeRowsMatchesFreeze(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, width := range []int{0, 1, 5, 8, 9, 13, 20, 28, 36, 45, 56, 57, 63, 64, 65, 128, 130, 192} {
		for _, n := range []int{0, 1, 7, 500} {
			for _, per := range []int{1, 3, 11} {
				rows := randomRows(rng, n*per, width)
				want, got := mapFreeze(n, per, width, rows), freezeRows(n, per, width, rows, hashLayout)
				if !bytes.Equal(frozenBytes(got), frozenBytes(want)) {
					t.Fatalf("width=%d n=%d per=%d: FreezeRows writes other bytes than the map build", width, n, per)
				}
				gotDir, gotWidth := dirTable(got)
				wantDir, wantWidth := dirTable(want)
				if got.SizeBytes() != want.SizeBytes() || !slices.Equal(gotDir, wantDir) || gotWidth != wantWidth || got.dirShift != want.dirShift {
					t.Fatalf("width=%d n=%d per=%d: size %d vs %d, or the directories differ", width, n, per, got.SizeBytes(), want.SizeBytes())
				}
			}
		}
	}
}

// TestEveryKeyWidth: a partition of w ≤ 64 bits keeps the ⌈r/8⌉ bytes
// of each key's remainder, r = w less its bucket's bits, and the zero pad
// after them, a wider one whole words; at every width
// the lookups by word, by bytes and in a batch find the same entry, the
// key scan and the histogram agree with brute force over the rows, the
// section round-trips through WriteTo and ReadFrozen, and SizeBytes is
// the serialized arenas plus the directory.
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
		f := FreezeRows(n, 1, width, rows)
		keyLen := 8 * words
		if width <= 64 {
			keyLen = (width + 7) / 8
		}
		if f.keyLen != keyLen || KeyLen(width) != keyLen {
			t.Fatalf("width %d: %d-byte keys (KeyLen %d), want %d", width, f.keyLen, KeyLen(width), keyLen)
		}
		if f.bitmap {
			if len(f.keyArena) != bitmapBytes(width) {
				t.Fatalf("width %d: a bitmap of %d bytes, want %d", width, len(f.keyArena), bitmapBytes(width))
			}
		} else if stored := f.remLen; width <= 64 && stored != (width-bucketBits(f.NumKeys())+7)/8 || width > 64 && stored != keyLen {
			t.Fatalf("width %d: keys of %d distinct stored in %d bytes", width, f.NumKeys(), stored)
		} else if pad := f.keyArena[stored*f.NumKeys():]; len(pad) != max(0, 8-stored) || !bytes.Equal(pad, make([]byte, len(pad))) {
			t.Fatalf("width %d: the keys are followed by % x, want %d zero bytes", width, pad, max(0, 8-stored))
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
			if e >= 0 && !slices.Contains(f.appendList(e, nil), int32(id%n)) && id < n {
				t.Fatalf("width %d: row %d's key lists %v", width, id, f.appendList(e, nil))
			}
			if width > 64 {
				continue
			}
			var word [8]byte
			copy(word[:], key)
			k := binary.LittleEndian.Uint64(word[:])
			if got := f.lookupWord(k); got != e {
				t.Fatalf("width %d: key %#x: word lookup %d, byte lookup %d", width, k, got, e)
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
		if want := bruteHistogram(n, 1, width, rows, q); !slices.Equal(hist, want) {
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
		if err != nil {
			t.Fatalf("width %d: the written section is rejected: %v", width, err)
		}
		if !bytes.Equal(frozenBytes(g), raw) || g.SizeBytes() != f.SizeBytes() {
			t.Fatalf("width %d: the section read back writes other bytes, or sizes %d against %d", width, g.SizeBytes(), f.SizeBytes())
		}
		kb, pb, ob, db := f.ArenaBreakdown()
		// Eight header fields, the arenas and the refs, then, 8-aligned, the
		// directory.
		serialized := (8*8+kb+pb+int64(len(f.refs))+7)&^7 + db
		dir, dirWidth := dirTable(f)
		if int64(len(raw)) != serialized || f.SizeBytes() != kb+pb+ob+db+frozenStructBytes || db != dirWidth*int64(len(dir)) {
			t.Fatalf("width %d: %d bytes written, %d from the arenas; SizeBytes %d, arenas and directory %d",
				width, len(raw), serialized, f.SizeBytes(), kb+pb+ob+db+frozenStructBytes)
		}
	}
}

// TestFreezeSortsUnsortedLists: each key lists its ids ascending and
// once each, however the keys of the ids interleave and repeat.
func TestFreezeSortsUnsortedLists(t *testing.T) {
	const k, x, y = 9, 2, 5
	rows := []uint64{
		k, x, k, // id 0 has k twice
		y, k, x, // id 1
		k, k, k, // id 2 has nothing else
	}
	f := FreezeRows(3, 3, 4, rows)
	for key, want := range map[uint64][]int32{k: {0, 1, 2}, x: {0, 1}, y: {1}} {
		if got := f.AppendPostingsBytes([]byte{byte(key)}, nil); !slices.Equal(got, want) {
			t.Fatalf("key %d lists %v, want %v", key, got, want)
		}
	}
	if f.TotalPostings() != 6 {
		t.Fatalf("%d postings, want 6", f.TotalPostings())
	}
}

// TestHashIsFormat pins the key hashes, which are part of the file
// format: a quotient-layout section stores each key as its hash's bucket
// and remainder, and a byte-layout section holds its keys in the order
// of theirs, so an edit to hashQuot, its constants, mix or hashKey would
// leave every saved index holding other keys or failing validation.
// hashInv inverts hashMul mod 2⁶⁴, so unhashQuot inverts hashQuot at
// every width.
func TestHashIsFormat(t *testing.T) {
	mul, inv := uint64(hashMul), uint64(hashInv)
	if mul != 0x9E3779B97F4A7C15 || inv != 0xF1DE83E19937733D || mul*inv != 1 {
		t.Fatalf("hashMul %#x, hashInv %#x: the format's are 0x9e3779b97f4a7c15 and 0xf1de83e19937733d, each the other's inverse", uint64(hashMul), uint64(hashInv))
	}
	for _, c := range []struct {
		width  int
		key, h uint64
	}{
		{1, 1, 0x1},
		{13, 0x1abc, 0x16c},
		{20, 0xfffff, 0x583eb},
		{36, 0x123456789, 0xb6771da3d},
		{64, 0x0123456789abcdef, 0x0c93a7b79aeda89b},
	} {
		if h := hashQuot(c.width, c.key); h != c.h || unhashQuot(c.width, h) != c.key {
			t.Errorf("%d-bit key %#x hashes to %#x and back to %#x; the format says %#x", c.width, c.key, h, unhashQuot(c.width, h), c.h)
		}
	}
	for _, c := range []struct {
		n    int
		hash uint64
	}{
		{9, 0x3528deeae19ecaf5},
		{16, 0x9bca3819b09a377c},
	} {
		key := make([]byte, c.n)
		for i := range key {
			key[i] = byte(0x11 * (i + 1))
		}
		if h := hashKey(key); h != c.hash {
			t.Errorf("%d-byte key % x hashes to %#016x, the format says %#016x", c.n, key, h, c.hash)
		}
	}
}

// unhashQuot returns the width-bit key whose hashQuot is h, as the key
// scans recover it (decodeStride).
func unhashQuot(width int, h uint64) uint64 { return h * hashInv & wordMask(width) }

// TestHashIsOneToOne: the quotient layout's hash is a bijection of the
// w-bit words at every width w from 1 to 64 — each key and only it
// hashes to its hash, which unhashQuot turns back into it — exhaustively
// up to 16 bits, and above at 0, at 2^w − 1 and at random keys.
func TestHashIsOneToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for w := 1; w <= 64; w++ {
		mask := wordMask(w)
		if w <= 16 {
			seen := make([]bool, 1<<w)
			for x := range uint64(1) << w {
				h := hashQuot(w, x)
				if h > mask || seen[h] || unhashQuot(w, h) != x {
					t.Fatalf("%d bits: key %#x hashes to %#x, taken before or not turned back", w, x, h)
				}
				seen[h] = true
			}
			continue
		}
		for _, x := range append([]uint64{0, mask}, rng.Uint64()&mask, rng.Uint64()&mask, rng.Uint64()&mask) {
			if h := hashQuot(w, x); h > mask || unhashQuot(w, h) != x {
				t.Fatalf("%d bits: key %#x hashes to %#x, which turns back into %#x", w, x, h, unhashQuot(w, h))
			}
		}
	}
}

// dirTable returns f's directory, each offset widened to uint32, and the
// bytes an offset takes, after checking that it is the directory of f's
// keys: 2^bucketBits(n) + 1 offsets from 0 to n, and the keys of each
// bucket, and no others, hash to it. Of a bitmap it returns the rank
// array, 4-byte entries, after checking that entry b counts the set bits
// below bit 512·b. It fails the caller's test through a panic if both
// widths, or neither, hold a directory.
func dirTable(f *Frozen) (dir []uint32, width int64) {
	if f.bitmap {
		if f.dir16 != nil || len(f.dir32) != rankLen(len(f.keyArena)) {
			panic("invindex: a bitmap's rank array of the wrong size")
		}
		for b, r := range f.dir32 {
			below := 0
			for k := range min(512*b, 8*len(f.keyArena)) {
				below += int(f.keyArena[k/8] >> (k % 8) & 1)
			}
			if int(r) != below {
				panic("invindex: a rank entry that does not count the keys below its block")
			}
		}
		return slices.Clone(f.dir32), 4
	}
	switch {
	case f.dir16 != nil && f.dir32 == nil:
		for _, o := range f.dir16 {
			dir = append(dir, uint32(o))
		}
		width = 2
	case f.dir32 != nil && f.dir16 == nil:
		dir, width = slices.Clone(f.dir32), 4
	default:
		panic("invindex: a frozen index holds a directory of both widths or of none")
	}
	n := f.NumKeys()
	if len(dir) != 1<<bucketBits(n)+1 || dir[0] != 0 || int(dir[len(dir)-1]) != n {
		panic("invindex: a directory of the wrong size or ends")
	}
	keys := f.keyBytes()
	for b := range len(dir) - 1 {
		for e := dir[b]; e < dir[b+1]; e++ {
			key := string(keys[int(e)*f.keyLen : int(e+1)*f.keyLen])
			h, shift := hashKey([]byte(key)), dirShift(n)
			if quotientWidth(f.width) {
				h, shift = hashQuot(f.width, wordOf(key)), uint(f.width-1-bucketBits(n))
			}
			if bucket(h, shift) != uint64(b) || shift != f.dirShift {
				panic("invindex: a key in a bucket its hash does not name")
			}
		}
	}
	return dir, width
}

// TestDirectoryWidthBoundary: an index of 65 535 keys keeps its
// directory in uint16 offsets and one of 65 536 in uint32. At each width,
// keys of one word and of two, every held key is found by every lookup
// form and absent ones are not, the directory rebuilt after a save and a
// load is the one the build made, and SizeBytes charges the offsets at
// their width.
func TestDirectoryWidthBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, n := range []int{maxNarrowKeys, maxNarrowKeys + 1} {
		wantWidth := int64(2)
		if n > maxNarrowKeys {
			wantWidth = 4
		}
		for _, width := range []int{36, 100} {
			// Distinct first words make distinct keys; a second word, where
			// there is one, is random.
			first := wordKeys(rng, n, min(width, 64))
			held := make(map[uint64]bool, n)
			var rows []uint64
			for _, k := range first {
				held[k] = true
				rows = append(rows, k)
				if width > 64 {
					rows = append(rows, rng.Uint64()&(1<<(width-64)-1))
				}
			}
			f := FreezeRows(n, 1, width, rows)
			dir, dirWidth := dirTable(f)
			if f.NumKeys() != n || dirWidth != wantWidth || len(dir) != 1<<15+1 {
				t.Fatalf("%d keys of %d bits: %d distinct, %d offsets of %d bytes; want %d of %d",
					n, width, f.NumKeys(), len(dir), dirWidth, 1<<15+1, wantWidth)
			}
			var probes []uint64
			for id, k := range first {
				e := f.lookupBytes(rowKey(rows, width, id))
				if e < 0 || !slices.Equal(f.appendList(e, nil), []int32{int32(id)}) {
					t.Fatalf("%d keys of %d bits: key %d found as entry %d", n, width, id, e)
				}
				if width <= 64 {
					if got := f.lookupWord(k); got != e {
						t.Fatalf("%d keys of %d bits: key %d by word %d, by bytes %d", n, width, id, got, e)
					}
					probes = append(probes, k, k|1<<width) // held, and absent: a bit past the width
				}
			}
			for range 2000 {
				k := rng.Uint64() & (^uint64(0) >> (64 - min(width, 64)))
				if held[k] {
					continue
				}
				key := binary.LittleEndian.AppendUint64(nil, k)
				if width > 64 {
					key = binary.LittleEndian.AppendUint64(key, rng.Uint64()&(1<<(width-64)-1))
				}
				if e := f.lookupBytes(key[:f.keyLen]); e >= 0 {
					t.Fatalf("%d keys of %d bits: absent key % x found as entry %d", n, width, key, e)
				}
				if width <= 64 {
					probes = append(probes, k)
				}
			}
			batch := slices.Repeat([]*Frozen{f}, len(probes))
			entries, counts := make([]int32, len(probes)), make([]uint32, len(probes))
			LookupWords(batch, probes, entries, counts)
			for i, k := range probes {
				if e := f.lookupWord(k); int(entries[i]) != e || int(counts[i]) != f.count(e) || (e >= 0) != held[k] {
					t.Fatalf("%d keys of %d bits: key %#x: batch entry %d count %d, word lookup %d, held %v",
						n, width, k, entries[i], counts[i], e, held[k])
				}
			}

			g, err := ReadFrozen(binio.NewReader(bytes.NewReader(frozenBytes(f))), int32(n))
			if err != nil {
				t.Fatalf("%d keys of %d bits: %v", n, width, err)
			}
			reread, rereadWidth := dirTable(g)
			if !slices.Equal(reread, dir) || rereadWidth != dirWidth {
				t.Fatalf("%d keys of %d bits: the directory rebuilt after a load differs from the build's", n, width)
			}
			kb, pb, ob, db := f.ArenaBreakdown()
			// One-id keys: 2-byte refs (ids up to 65 535) and their pad.
			want := int64(len(f.keyArena)+len(f.postArena)) + int64(2*n+2) + dirWidth*int64(len(dir)) + frozenStructBytes
			if f.SizeBytes() != want || g.SizeBytes() != want || kb+pb+ob+db+frozenStructBytes != want {
				t.Fatalf("%d keys of %d bits: SizeBytes %d, loaded %d, by component %d; want %d",
					n, width, f.SizeBytes(), g.SizeBytes(), kb+pb+ob+db+frozenStructBytes, want)
			}
		}
	}
}

// TestEntryWidthBoundary: a ref takes the bytes its largest needs, at
// every byte boundary of the largest — a one-id entry's id, or, when the
// index has a list, the last list's maxID + offset. Refs up to 65 536 are
// built by FreezeRows, with the largest an id and with it a list's; refs
// at 2²⁴ − 1 and 2²⁴ are sections written by hand and read against a
// collection near 2²⁴ ids. Each is checked as built, read onto the heap
// and read in place.
func TestEntryWidthBoundary(t *testing.T) {
	distinct := func(n int) *Frozen { // n ids, a key each: the largest ref is n − 1
		rows := make([]uint64, n)
		for id := range rows {
			rows[id] = uint64(id) * 3
		}
		return FreezeRows(n, 1, 20, rows)
	}
	shared := func(n, under int) *Frozen { // ids [0, under) under one key, the rest a key each: the largest ref is n, the list's
		rows := make([]uint64, n)
		for id := range rows {
			rows[id] = uint64(max(id-under+1, 0))
		}
		return FreezeRows(n, 1, 9, rows)
	}
	id := func(v uint32) post { return post{ref: v} }
	keys := hashOrder(24, []string{narrowKey(1, 3), narrowKey(2, 3), narrowKey(3, 3)})
	handIDs := func(last uint32) *Frozen { // ids 7, 9 and last: the largest ref is last
		return handSection(24, 1<<24+1, keys, []post{id(7), id(9), id(last)}, make([]byte, 5))
	}
	handLists := func(maxID int32) *Frozen { // two lists of three bytes: the largest ref is maxID + 3
		return handSection(24, maxID, keys, []post{id(7), listOf(2, 1, 1), listOf(2, 2, 1)}, make([]byte, 5))
	}
	for _, c := range []struct {
		name   string
		f      *Frozen
		maxID  int32
		refLen int
	}{
		{"largest ref 255, an id", distinct(256), 256, 1},
		{"largest ref 256, an id", distinct(257), 257, 2},
		{"largest ref 255, a list", shared(255, 2), 255, 1},
		{"largest ref 256, a list", shared(256, 2), 256, 2},
		{"largest ref 65 535", distinct(1 << 16), 1 << 16, 2},
		{"largest ref 65 536", distinct(1<<16 + 1), 1<<16 + 1, 3},
		{"largest ref 2²⁴ − 1, an id", handIDs(1<<24 - 1), 1<<24 + 1, 3},
		{"largest ref 2²⁴, an id", handIDs(1 << 24), 1<<24 + 1, 4},
		{"largest ref 2²⁴ − 1, a list", handLists(1<<24 - 4), 1<<24 - 4, 3},
		{"largest ref 2²⁴, a list", handLists(1<<24 - 3), 1<<24 - 3, 4},
	} {
		f := c.f
		if err := f.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		raw := frozenBytes(f)
		heap, err := ReadFrozen(binio.NewReader(bytes.NewReader(raw)), c.maxID)
		if err != nil {
			t.Fatalf("%s: read onto the heap: %v", c.name, err)
		}
		borrowed, err := ReadFrozen(binio.NewReader(binio.NewSource(raw)), c.maxID)
		if err != nil {
			t.Fatalf("%s: read in place: %v", c.name, err)
		}
		want := map[string][]int32{}
		keys := f.keyBytes()
		for e := range f.NumKeys() {
			want[string(keys[e*f.keyLen:(e+1)*f.keyLen])] = f.appendList(e, nil)
		}
		n := int64(f.NumKeys())
		size := int64(len(f.keyArena)+len(f.postArena)) + int64(c.refLen)*n + int64(4-c.refLen) + f.dirBytes() + frozenStructBytes
		for _, g := range []struct {
			how string
			f   *Frozen
		}{{"built", f}, {"heap", heap}, {"borrowed", borrowed}} {
			what := c.name + ", " + g.how
			if g.f.refLen != c.refLen {
				t.Fatalf("%s: refs of %d bytes, want %d", what, g.f.refLen, c.refLen)
			}
			if g.f.SizeBytes() != size {
				t.Fatalf("%s: SizeBytes %d, want %d", what, g.f.SizeBytes(), size)
			}
			if !bytes.Equal(frozenBytes(g.f), raw) {
				t.Fatalf("%s: writes other bytes than it was read from", what)
			}
			checkEveryForm(t, what, g.f, want, c.maxID)
		}
	}
}

// TestStructBytesPinned: SizeBytes charges the struct every field it
// has, and the struct is as large as the fields say: five slice headers,
// seven words, the layout flag and the id bound in one, the validation
// state's once and error.
func TestStructBytesPinned(t *testing.T) {
	if frozenStructBytes != 216 || frozenStructBytes != int64(unsafe.Sizeof(Frozen{})) {
		t.Fatalf("frozenStructBytes is %d, the struct %d bytes, pinned at 216", frozenStructBytes, unsafe.Sizeof(Frozen{}))
	}
}

// checkEveryForm holds f to want, each key to its ids: by every lookup
// form, by Range, and — around the first key — by Histogram and
// CollectWithin; set is an id set over maxID ids.
func checkEveryForm(t *testing.T, what string, f *Frozen, want map[string][]int32, maxID int32) {
	t.Helper()
	set := IDSet{Seen: make([]uint64, (maxID+63)/64)}
	collected := func(n int) []int32 {
		ids := slices.Clone(set.IDs)
		set.Reset()
		slices.Sort(ids)
		if n != len(ids) {
			return nil
		}
		return ids
	}
	var buf []byte
	var words []uint64
	var entries []int32
	var batch []*Frozen
	for key, ids := range want {
		var word [8]byte
		copy(word[:], key)
		w := binary.LittleEndian.Uint64(word[:])
		e := f.LookupKey([]uint64{w}, &buf)
		var each []int32
		f.ForEachEntry(e, func(id int32) bool { each = append(each, id); return true })
		switch {
		case e < 0 || f.lookupBytes([]byte(key)) != e:
			t.Fatalf("%s: key % x found as entry %d, by its bytes as %d", what, key, e, f.lookupBytes([]byte(key)))
		case !slices.Equal(f.AppendPostingsBytes([]byte(key), nil), ids) || !slices.Equal(each, ids):
			t.Fatalf("%s: key % x lists %v and %v, want %v", what, key, f.AppendPostingsBytes([]byte(key), nil), each, ids)
		case f.PostingLenBytes([]byte(key)) != len(ids) || f.PostingLenWord(w) != len(ids) || f.EntryLen(e) != len(ids):
			t.Fatalf("%s: key % x counts %d, %d and %d postings, want %d", what, key, f.PostingLenBytes([]byte(key)), f.PostingLenWord(w), f.EntryLen(e), len(ids))
		case !slices.Equal(collected(f.CollectEntry(e, &set)), ids),
			!slices.Equal(collected(f.CollectBytes([]byte(key), &set)), ids),
			!slices.Equal(collected(f.CollectWord(w, &set)), ids):
			t.Fatalf("%s: key % x: a collect does not gather %v", what, key, ids)
		}
		words, entries, batch = append(words, w), append(entries, int32(e)), append(batch, f)
	}
	gotEntries, counts := make([]int32, len(batch)), make([]uint32, len(batch))
	LookupWords(batch, words, gotEntries, counts)
	for i, e := range entries {
		if gotEntries[i] != e || int(counts[i]) != f.EntryLen(int(e)) {
			t.Fatalf("%s: key %#x: batch entry %d count %d, want %d and %d", what, words[i], gotEntries[i], counts[i], e, f.EntryLen(int(e)))
		}
	}
	ranged := 0
	f.Range(func(key []byte, ids []int32) bool {
		if !slices.Equal(ids, want[string(key)]) {
			t.Fatalf("%s: Range lists %v under % x, want %v", what, ids, key, want[string(key)])
		}
		ranged++
		return true
	})
	if ranged != len(want) {
		t.Fatalf("%s: Range yields %d keys, want %d", what, ranged, len(want))
	}
	q := []uint64{words[0]}
	wantHist := make([]int64, 65)
	var within []int32
	var wantSum int64
	for key, ids := range want {
		d := keyDistance([]byte(key), q)
		wantHist[d] += int64(len(ids))
		if d <= 3 {
			within, wantSum = append(within, ids...), wantSum+int64(len(ids))
		}
	}
	slices.Sort(within)
	within = slices.Compact(within)
	hist := make([]int64, 65)
	f.Histogram(q, hist)
	if !slices.Equal(hist, wantHist) {
		t.Fatalf("%s: histogram %v, want %v", what, hist, wantHist)
	}
	sum := f.CollectWithin(q, 3, &set)
	if got := collected(len(set.IDs)); !slices.Equal(got, within) || sum != wantSum {
		t.Fatalf("%s: the radius-3 scan gathers %v (%d postings), want %v (%d)", what, got, sum, within, wantSum)
	}
}
