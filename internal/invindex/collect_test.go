package invindex

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"gph/internal/bitvec"
	"gph/internal/hamming"
)

// wordKeys returns n distinct random keys with bits only below width.
func wordKeys(rng *rand.Rand, n, width int) []uint64 {
	mask := ^uint64(0) >> (64 - uint(width))
	seen := make(map[uint64]bool, n)
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		if k := rng.Uint64() & mask; !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// freezeWords freezes an index holding one 8-byte key per word, key j
// posting to id j.
func freezeWords(keys []uint64) *Frozen { return FreezeRows(len(keys), 1, 64, keys) }

// projectionIndex freezes the projections of n random vectors onto w
// dimensions and returns them with it: in KeyLen(w)-byte keys when
// narrow, as every build keys them, and otherwise under their whole
// words, as builds did before keys were as wide as their partition.
// Skewed draws most bits zero, so few distinct keys carry long posting
// lists; otherwise keys are near-distinct.
func projectionIndex(rng *rand.Rand, n, w int, skewed, narrow bool) (*Frozen, []bitvec.Vector) {
	data := make([]bitvec.Vector, n)
	for id := range data {
		v := bitvec.New(w)
		for d := 0; d < w; d++ {
			bit := rng.Intn(2)
			if skewed && rng.Intn(8) != 0 {
				bit = 0
			}
			v.SetBit(d, bit)
		}
		data[id] = v
	}
	width := w
	if !narrow {
		width = 64 * ((w + 63) / 64)
	}
	return FreezeRows(n, 1, width, vectorRows(data)), data
}

// keyWords returns f's keys of at most 8 bytes in entry order, each as
// one zero-extended word, however f holds them.
func keyWords(f *Frozen) []uint64 {
	all := f.keyBytes()
	words := make([]uint64, f.NumKeys())
	for e := range words {
		var w [8]byte
		copy(w[:], all[e*f.keyLen:(e+1)*f.keyLen])
		words[e] = binary.LittleEndian.Uint64(w[:])
	}
	return words
}

// checkHistogram holds the histogram kernel to its two references: the
// brute-force histogram of the keys the index was frozen from
// (FuzzFreezeRows's oracle), and the distances of the vectors themselves.
func checkHistogram(t *testing.T, f *Frozen, data []bitvec.Vector, q bitvec.Vector) []int64 {
	t.Helper()
	w := q.Dims()
	hist := make([]int64, 64*len(q.Words())+1)
	f.Histogram(q.Words(), hist)
	keys := bruteHistogram(len(data), 1, w, vectorRows(data), q.Words())
	brute := make([]int64, len(hist))
	for _, v := range data {
		brute[v.Hamming(q)]++
	}
	if !slices.Equal(hist, brute) || !slices.Equal(hist, keys) {
		t.Fatalf("w=%d: frozen histogram %v, the keys' %v, distances %v", w, hist, keys, brute)
	}
	return hist
}

// TestCollectPathsAgree is the property candidate generation rests on:
// the ids gathered by one pass over the key arena are the ids gathered
// by enumerating the ball and probing, and so is Σ postings — for
// zero-width, one-word, striped and sub-word widths, keys as narrow as
// the partition and keys of whole words, skewed and near-distinct key
// sets, and every radius from the point to past the whole space. Allocation rests on the same keys read a third way: the
// distance histogram's prefix sums are those Σ postings, and the
// histogram is the exact estimator's and the data's own, for a perturbed
// query and a stored one.
func TestCollectPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range []int{0, 1, 13, 24, 63, 64, 65, 130} {
		for _, c := range []struct{ skewed, narrow bool }{{true, true}, {false, true}, {true, false}, {false, false}} {
			const n = 300
			f, data := projectionIndex(rng, n, w, c.skewed, c.narrow)
			keyLen := 8 * len(data[0].Words())
			if c.narrow {
				keyLen = KeyLen(w)
			}
			q := bitvec.New(w)
			for d := 0; d < w; d++ {
				q.SetBit(d, rng.Intn(2))
			}
			checkHistogram(t, f, data, data[7])
			hist := checkHistogram(t, f, data, q)
			var cn int64
			// Enumeration is exponential in the radius.
			maxEnum := w + 1
			if size, ok := hamming.BallSize(w, maxEnum); !ok || size > 1<<16 {
				maxEnum = 2
			}
			for r := 0; r <= w+1; r++ {
				scanned := IDSet{Seen: make([]uint64, (n+63)/64)}
				scanSum := f.CollectWithin(q.Words(), r, &scanned)

				// The reference: every key of the ball probed by its bytes —
				// and, where a key is one word, by that word — or, past what
				// a test can enumerate, every key at that distance read off
				// the arena.
				probed := IDSet{Seen: make([]uint64, (n+63)/64)}
				worded := IDSet{Seen: make([]uint64, (n+63)/64)}
				var probeSum, wordSum int64
				if r <= maxEnum {
					var key []byte
					_ = hamming.EnumerateBall(q, r, 0, func(v bitvec.Vector) bool {
						key = v.AppendKey(key[:0])[:keyLen]
						probeSum += int64(f.CollectBytes(key, &probed))
						if w > 0 && w <= 64 {
							wordSum += int64(f.CollectWord(v.Words()[0], &worded))
						}
						return true
					})
					if w > 0 && w <= 64 && (wordSum != probeSum || !slices.Equal(worded.IDs, probed.IDs)) {
						t.Fatalf("w=%d %+v r=%d: word probes decoded %d postings into %d ids, byte probes %d into %d",
							w, c, r, wordSum, len(worded.IDs), probeSum, len(probed.IDs))
					}
				} else {
					f.Range(func(key []byte, ids []int32) bool {
						if keyDistance(key, q.Words()) <= r {
							probeSum += int64(len(ids))
							for _, id := range ids {
								if probed.Seen[id/64]>>(uint(id)%64)&1 == 0 {
									probed.Seen[id/64] |= 1 << (uint(id) % 64)
									probed.IDs = append(probed.IDs, id)
								}
							}
						}
						return true
					})
				}
				if scanSum != probeSum {
					t.Fatalf("w=%d %+v r=%d: scan decoded %d postings, probes %d", w, c, r, scanSum, probeSum)
				}
				if r < len(hist) {
					cn += hist[r]
				}
				if cn != scanSum {
					t.Fatalf("w=%d %+v r=%d: the histogram sums to CN %d, the scan decoded %d postings", w, c, r, cn, scanSum)
				}
				slices.Sort(scanned.IDs)
				slices.Sort(probed.IDs)
				if !slices.Equal(scanned.IDs, probed.IDs) {
					t.Fatalf("w=%d %+v r=%d: scan gathered %d ids, probes %d", w, c, r, len(scanned.IDs), len(probed.IDs))
				}
				if r >= w && len(scanned.IDs) != n {
					t.Fatalf("w=%d r=%d: the whole space holds %d of %d ids", w, r, len(scanned.IDs), n)
				}
				scanned.Reset()
				for i, word := range scanned.Seen {
					if word != 0 {
						t.Fatalf("w=%d r=%d: Reset left word %d = %#x", w, r, i, word)
					}
				}
			}
		}
	}
}

// keyDistance is the distance between q and key read as len(q)
// little-endian words, a short key zero-extended.
func keyDistance(key []byte, q []uint64) int {
	d := 0
	for j, w := range q {
		var word [8]byte
		copy(word[:], key[min(8*j, len(key)):])
		d += bits.OnesCount64(binary.LittleEndian.Uint64(word[:]) ^ w)
	}
	return d
}

// TestCollectWithinMixedWidths: keys and a query of different widths —
// a one-word query against keys of two words, a two-word query against
// keys of one — match nothing, in the scans as in a probe, and the
// histogram counts nothing; the same keys at the query's own width match.
func TestCollectWithinMixedWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct{ width, queryWords int }{{100, 1}, {40, 2}, {8, 2}} {
		const n = 60
		rows := randomRows(rng, n, c.width)
		f := FreezeRows(n, 1, c.width, rows)
		q := make([]uint64, c.queryWords)
		got := IDSet{Seen: make([]uint64, 1)}
		hist := make([]int64, 64*len(q)+1)
		f.Histogram(q, hist)
		if sum := f.CollectWithin(q, 64*len(q), &got); sum != 0 || len(got.IDs) != 0 || slices.ContainsFunc(hist, func(c int64) bool { return c != 0 }) {
			t.Fatalf("%d-bit keys, %d-word query: the scan matched %d postings, the histogram %v", c.width, c.queryWords, sum, hist)
		}
		own := make([]uint64, (c.width+63)/64)
		if sum := f.CollectWithin(own, c.width, &got); sum != n {
			t.Fatalf("%d-bit keys at their own width: the whole space holds %d of %d postings", c.width, sum, n)
		}
	}
}

// TestLookupFormsAgree: the byte lookup of a key of at most 8 bytes is
// the word lookup of the word its bytes spell, so the two find the same
// entry for every key held and none for keys that are not — on keys of
// whole words and on keys as narrow as their partition, where a word
// with a bit past the partition's width is held under no key.
func TestLookupFormsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	keys := wordKeys(rng, 500, 40)
	f, nf := freezeWords(keys), FreezeRows(len(keys), 1, 40, keys)
	if nf.keyLen != 5 {
		t.Fatalf("40-bit keys take %d bytes", nf.keyLen)
	}
	held := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		held[k] = true
	}
	for _, f := range []*Frozen{f, nf} {
		var b [8]byte
		kl := f.keyLen
		for id, k := range keys {
			binary.LittleEndian.PutUint64(b[:], k)
			key := b[:kl]
			e := f.lookupWord(k)
			if e < 0 || e != f.lookupBytes(key) {
				t.Fatalf("%d-byte key %#x: word %d, bytes %d", kl, k, e, f.lookupBytes(key))
			}
			if ids := f.appendList(e, nil); len(ids) != 1 || ids[0] != int32(id) {
				t.Fatalf("%d-byte key %#x resolves to postings %v, want [%d]", kl, k, ids, id)
			}
			if f.lookupWord(k|1<<40) >= 0 || f.lookupWord(k|1<<63) >= 0 {
				t.Fatalf("%d-byte key %#x found with a bit past the partition set", kl, k)
			}
		}
		for range 2000 {
			k := rng.Uint64() >> uint(rng.Intn(64))
			if held[k] {
				continue
			}
			binary.LittleEndian.PutUint64(b[:], k)
			if f.lookupWord(k) >= 0 || (k < 1<<40 && f.lookupBytes(b[:kl]) >= 0) {
				t.Fatalf("%d-byte keys: absent key %#x found", kl, k)
			}
			if f.PostingLenWord(k) != 0 {
				t.Fatalf("%d-byte keys: absent key %#x has postings", kl, k)
			}
		}
	}
	// A deletion-variant index lists each projection under its exact key,
	// the projection itself: the word lookup finds it. Where keys are wider
	// than a word, or of no width, it finds nothing.
	vf, _, _, vrows := randomIndex(t, 4, 40, 24, true)
	for id := range 40 {
		key := rowKey(vrows, variantWidth(24), id*25)
		if e := vf.lookupWord(vrows[id*25]); e < 0 || e != vf.lookupBytes(key) {
			t.Fatalf("variant index: word lookup %d, byte lookup %d", e, vf.lookupBytes(key))
		}
	}
	wide := FreezeRows(1, 1, 100, []uint64{7, 0})
	if New().Freeze().lookupWord(7) >= 0 || wide.lookupWord(7) >= 0 {
		t.Fatal("an index without one-word keys found a word key")
	}
	// The staged batch is the word lookup, position by position: over
	// indexes of every kind at once — keys of whole words and narrow keys,
	// keys picked so that each sits behind another key of its bucket (the
	// sequential keys of TestBucketsShort) in directories of uint16 and of
	// uint32 offsets, long posting lists, mixed widths, no keys at all,
	// and positions without an index — probed for held and absent keys,
	// many more positions than a query has partitions.
	chained := make([]uint64, 70000)
	for i := range chained {
		chained[i] = uint64(i)
	}
	cf, ncf := freezeWords(chained[:1<<12]), freezeRows(1<<12, 1, 12, chained[:1<<12], hashLayout)
	wcf := freezeWords(chained)
	displaced := func(f *Frozen) []uint64 {
		var out []uint64
		held := keyWords(f)
		for _, k := range chained[:f.NumKeys()] {
			if lo, _ := f.span(hashQuot(f.width, k)); held[lo] != k {
				out = append(out, k)
			}
		}
		if len(out) < 100 {
			t.Fatalf("only %d of %d sequential %d-byte keys sit behind another key of their bucket", len(out), f.NumKeys(), f.keyLen)
		}
		return out
	}
	cd, ncd, wcd := displaced(cf), displaced(ncf), displaced(wcf)
	lf, lvecs := projectionIndex(rng, 300, 13, true, false)
	nlf, nlvecs := projectionIndex(rng, 300, 13, true, true)
	var fs []*Frozen
	var words []uint64
	for i := range 40 {
		fs = append(fs, f, f, nf, nf, cf, cf, ncf, ncf, wcf, wcf, lf, lf, nlf, nlf, vf, vf, New().Freeze(), nil)
		words = append(words, keys[i], rng.Uint64(), keys[i], keys[i]|1<<40, cd[i], uint64(1<<12+i), ncd[i], uint64(1<<12+i),
			wcd[i], uint64(len(chained)+i), lvecs[i].Words()[0], 1<<13|uint64(i), nlvecs[i].Words()[0], 1<<13|uint64(i),
			vrows[i*25], rng.Uint64(), keys[i], keys[i])
	}
	const untouched = -7
	entries, counts := make([]int32, len(fs)), make([]uint32, len(fs))
	for i := range entries {
		entries[i], counts[i] = untouched, untouched&0xff
	}
	LookupWords(fs, words, entries, counts)
	found := 0
	for i, bf := range fs {
		if bf == nil {
			if entries[i] != untouched || counts[i] != untouched&0xff {
				t.Fatalf("position %d has no index and was written: entry %d, count %d", i, entries[i], counts[i])
			}
			continue
		}
		e := bf.lookupWord(words[i])
		if int(entries[i]) != e || int(counts[i]) != bf.count(e) || int(counts[i]) != bf.PostingLenWord(words[i]) {
			t.Fatalf("position %d, key %#x: batch found entry %d with %d postings, the word lookup entry %d with %d",
				i, words[i], entries[i], counts[i], e, bf.count(e))
		}
		if e >= 0 {
			found++
		}
		// Collecting from the entry is collecting from the key: the same
		// ids in the same order, the same bits, the same length reported —
		// into a set that already holds some of them.
		byEntry := IDSet{Seen: make([]uint64, (len(chained)+63)/64)}
		byWord := IDSet{Seen: make([]uint64, (len(chained)+63)/64)}
		for _, set := range []*IDSet{&byEntry, &byWord} {
			set.Seen[0], set.IDs = 0b1010, append(set.IDs, 1, 3)
		}
		if n, want := bf.CollectEntry(int(entries[i]), &byEntry), bf.CollectWord(words[i], &byWord); n != want ||
			!slices.Equal(byEntry.IDs, byWord.IDs) || !slices.Equal(byEntry.Seen, byWord.Seen) {
			t.Fatalf("position %d, key %#x: by entry %d postings into %v, by word %d into %v", i, words[i], n, byEntry.IDs, want, byWord.IDs)
		}
	}
	if found != 8*40 {
		t.Fatalf("%d of %d lookups found a key; eight in eighteen probe for one that is held", found, len(fs))
	}
	set := IDSet{Seen: make([]uint64, (len(chained)+63)/64)}
	if allocs := testing.AllocsPerRun(20, func() {
		LookupWords(fs, words, entries, counts)
		for i, bf := range fs {
			if bf != nil {
				bf.CollectEntry(int(entries[i]), &set)
			}
		}
		set.Reset()
	}); allocs != 0 {
		t.Fatalf("a staged lookup and its collects allocate %v times", allocs)
	}

	// A tail's zero bytes count.
	if a, a0, a00 := hashKey([]byte("a")), hashKey([]byte("a\x00")), hashKey([]byte("a\x00\x00")); a == a0 || a0 == a00 {
		t.Fatal("a tail's zero bytes do not count")
	}
}

// TestBucketsShort: a probe compares a word against the keys of one
// bucket, and at 2^b buckets for between 2^b and 2^(b+1) keys they are
// short for every key set: the ones that break a hash read in its low
// bits — sequential keys, keys that vary only in their low bits, as a
// narrow partition's do — and random 20-, 28- and 64-bit keys, at 2¹²
// keys (uint16 offsets) and at 2¹⁶ and 2²⁰ (uint32). No bucket holds more
// than 16 keys, and a hit compares at most 3.25 keys on average: the
// keys before it in its bucket and itself. Each set is held as whole
// words and, where it fits one, in keys as narrow as its width — in the
// hash layout, which a narrow set would otherwise not get.
func TestBucketsShort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
		sequential := make([]uint64, n)
		lowBits := make([]uint64, n)
		low := make([]uint64, n)
		for i := range sequential {
			sequential[i] = uint64(i)
			low[i] = uint64(2 * i) // n even values below 2n
			lowBits[i] = 0xABCD_0000_0000_0000 | low[i]
		}
		seqWidth := bits.Len(uint(n - 1))
		for _, set := range []struct {
			name  string
			keys  []uint64
			width int // the keys' width when held narrow; 0 for whole words only
		}{
			{"sequential", sequential, seqWidth},
			{"low bits", lowBits, 0},
			{"low bits", low, seqWidth + 1},
			{"random", wordKeys(rng, n, 64), 0},
			{"random 20-bit", wordKeys(rng, n, 20), 20},
			{"random 28-bit", wordKeys(rng, n, 28), 28},
		} {
			forms := []*Frozen{freezeWords(set.keys)}
			if set.width > 0 {
				forms = append(forms, freezeRows(n, 1, set.width, set.keys, hashLayout))
			}
			for _, f := range forms {
				if _, width := dirTable(f); width != int64(2+2*min(n>>16, 1)) {
					t.Fatalf("%d %s keys: %d-byte offsets", n, set.name, width)
				}
				longest, compared := 0, 0
				held := keyWords(f)
				for _, k := range set.keys {
					lo, hi := f.span(hashQuot(f.width, k))
					e := f.lookupWord(k)
					if e < int(lo) || e >= int(hi) || held[e] != k {
						t.Fatalf("%d %s keys: key %#x found as entry %d, its bucket holds %d to %d", n, set.name, k, e, lo, hi)
					}
					longest = max(longest, int(hi-lo))
					compared += e - int(lo) + 1
				}
				if mean := float64(compared) / float64(n); longest > 16 || mean > 3.25 {
					t.Errorf("%d %s keys, %d bytes: longest bucket %d keys (want ≤ 16), a hit compares %.2f on average (want ≤ 3.25)",
						n, set.name, f.keyLen, longest, mean)
				}
			}
		}
	}
}

// BenchmarkFrozenProbeVsScan measures the unit costs engine.ProbePrice
// (internal/engine) is derived from, on a partition shaped like
// lib_wide's: 20 000 near-distinct 36-bit keys, 3 bytes of remainder
// each. A probe is one
// signature of a Hamming ball looked up by word (the ball walk
// included); a scan step is one key of the arena compared (candidate
// generation) or added to the distance histogram (allocation); a posting
// is one id decoded into the candidate set, the same on either path —
// from a key the scan matched (decode-posting), or from a probe's hit on
// a key with one id (collect-singleton) or with two or three
// (collect-list), entries taken in no order the arenas have. The word
// probes run again on 70 000 keys (the -70000 lines: past the 65 535 a
// directory of uint16 offsets reaches, so its offsets are uint32) and on
// 10⁶ (the -1000000 lines: a directory and an arena far out of cache).
func BenchmarkFrozenProbeVsScan(b *testing.B) {
	const n, width = 20000, 36
	rng := rand.New(rand.NewSource(1))
	keys := wordKeys(rng, n, width)
	f := FreezeRows(n, 1, width, keys)
	set := IDSet{Seen: make([]uint64, (n+63)/64)}
	// absentFrom returns, for each of keys, a key of the width that the
	// index of held does not hold: it flips the key's top bits, one more
	// until it misses, so a miss walks its bucket as a probe's does.
	absentFrom := func(held, keys []uint64) []uint64 {
		in := make(map[uint64]bool, len(held))
		for _, k := range held {
			in[k] = true
		}
		absent := make([]uint64, len(keys))
		for i, k := range keys {
			for bit := width - 1; in[k]; bit-- {
				k ^= 1 << bit
			}
			absent[i] = k
		}
		return absent
	}
	absent := absentFrom(keys, wordKeys(rng, n, width))
	// The wide partition draws from a seed of its own: the draws of the
	// runs below stay what they were.
	wideKeys := wordKeys(rand.New(rand.NewSource(2)), 70000, width)
	millionKeys := wordKeys(rand.New(rand.NewSource(3)), 1000000, width)
	var sink int

	perItem := func(b *testing.B, items int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(items), "ns/item")
	}
	for _, p := range []struct {
		suffix       string
		f            *Frozen
		keys, absent []uint64
	}{
		{"", f, keys, absent},
		{"-70000", FreezeRows(len(wideKeys), 1, width, wideKeys), wideKeys, absentFrom(wideKeys, wideKeys[len(wideKeys)/2:])},
		{"-1000000", FreezeRows(len(millionKeys), 1, width, millionKeys), millionKeys, absentFrom(millionKeys, millionKeys[len(millionKeys)/2:])},
	} {
		b.Run("word-probe-hit"+p.suffix, func(b *testing.B) {
			for range b.N {
				for _, k := range p.keys {
					sink += p.f.PostingLenWord(k)
				}
			}
			perItem(b, len(p.keys))
		})
		b.Run("word-probe-miss"+p.suffix, func(b *testing.B) {
			for range b.N {
				for _, k := range p.absent {
					sink += p.f.PostingLenWord(k)
				}
			}
			perItem(b, len(p.absent))
		})
		b.Run("ball-probe"+p.suffix, func(b *testing.B) {
			size, _ := hamming.BallSize(width, 2)
			for range b.N {
				ball := hamming.NewWordBall(p.keys[0], width, 2)
				for ok := true; ok; ok = ball.Next() {
					sink += p.f.PostingLenWord(ball.Sig)
				}
			}
			perItem(b, int(size))
		})
	}
	b.Run("byte-probe-miss", func(b *testing.B) {
		var key [8]byte
		for range b.N {
			for _, k := range absent {
				binary.LittleEndian.PutUint64(key[:], k)
				sink += f.PostingLenBytes(key[:f.keyLen])
			}
		}
		perItem(b, n)
	})
	b.Run("scan-key", func(b *testing.B) {
		q := []uint64{absent[0]}
		for range b.N {
			sink += int(f.CollectWithin(q, 0, &set))
		}
		perItem(b, n)
	})
	b.Run("histogram-key", func(b *testing.B) {
		q := []uint64{absent[0]}
		hist := make([]int64, 65)
		for range b.N {
			f.Histogram(q, hist)
		}
		sink += int(hist[0])
		perItem(b, n)
	})
	b.Run("decode-posting", func(b *testing.B) {
		// The regime where decoding dominates, lib_wide's narrow
		// partition: 20 000 ids over the 2¹³ keys of a 13-bit partition,
		// a radius-7 ball that holds most of them.
		dense, _ := projectionIndex(rng, n, 13, false, true)
		q := []uint64{0x0A5A}
		postings := dense.CollectWithin(q, 7, &set)
		set.Reset()
		b.ResetTimer()
		for range b.N {
			sink += int(dense.CollectWithin(q, 7, &set))
			set.Reset()
		}
		perItem(b, int(postings))
	})
	// collect times CollectEntry over every entry of g, shuffled, that
	// keep admits: ns a posting.
	collect := func(b *testing.B, g *Frozen, keep func(count int) bool) {
		var entries []int
		postings := 0
		for _, e := range rng.Perm(g.NumKeys()) {
			if keep(g.EntryLen(e)) {
				entries = append(entries, e)
				postings += g.EntryLen(e)
			}
		}
		b.ResetTimer()
		for range b.N {
			for _, e := range entries {
				sink += g.CollectEntry(e, &set)
			}
			set.Reset()
		}
		perItem(b, postings)
	}
	b.Run("collect-singleton", func(b *testing.B) {
		collect(b, f, func(count int) bool { return count == 1 })
	})
	b.Run("collect-list", func(b *testing.B) {
		// The 20 000 ids two and three to a key: 8 000 keys, id i under key
		// i mod 8 000.
		pool := wordKeys(rng, n*2/5, width)
		rows := make([]uint64, n)
		for id := range rows {
			rows[id] = pool[id%len(pool)]
		}
		collect(b, FreezeRows(n, 1, width, rows), func(count int) bool { return count > 1 })
	})
	_ = sink
}

// TestCollectMatchesMapReference holds the branch-free collect — every
// decoded id stored past the members and kept by its seen bit — and
// IDSet.Add to a map-based set: the same members in first-seen order, the
// bits of exactly those members, each list's length reported, and a Reset
// that leaves the bitmap all zero. The inputs are the ones a stored-past
// id could go wrong on: lists in which every id repeats, ids either side
// of a bitmap word (63, 64, 65) and the collection's last id, lists longer
// than the set's capacity, and sets that hold members already.
func TestCollectMatchesMapReference(t *testing.T) {
	const n = 130 // the last id, 129, sits in a third word
	edge := []int32{63, 64, 65, n - 1}
	// Two keys an id, so that every id is in two lists: its first key
	// puts it with the edge ids or in one of three long lists, its second
	// in one of five; id 0's second key is its own, a one-id entry.
	rows := make([]uint64, 2*n)
	for id := range int32(n) {
		rows[2*id], rows[2*id+1] = 10+uint64(id%3), 20+uint64(id%5)
		if slices.Contains(edge, id) {
			rows[2*id] = 1
		}
	}
	rows[1] = 30
	wide := make([]uint64, 2*2*n) // the same keys two words wide: the byte layout
	for k, r := range rows {
		wide[2*k] = r
	}
	forms := map[string]*Frozen{
		"hash":   freezeRows(n, 2, 8, rows, hashLayout),
		"bitmap": freezeRows(n, 2, 8, rows, bitmapLayout),
		"bytes":  FreezeRows(n, 2, 128, wide),
	}
	for name, f := range forms {
		entries := make([]int, f.NumKeys())
		for e := range entries {
			entries[e] = e
		}
		backwards := slices.Clone(entries)
		slices.Reverse(backwards)
		rng := rand.New(rand.NewSource(7))
		for _, c := range []struct {
			what  string
			order []int
		}{
			{"every entry", entries},
			{"every entry twice, so every id repeats", slices.Concat(entries, entries)},
			{"every entry backwards", backwards},
			{"a random draw", []int{rng.Intn(len(entries)), rng.Intn(len(entries)), rng.Intn(len(entries)), rng.Intn(len(entries))}},
		} {
			for _, members := range [][]int32{nil, {64}, edge} {
				set := IDSet{Seen: make([]uint64, (n+63)/64), IDs: make([]int32, 0, 1)} // capacity below any list
				added := IDSet{Seen: make([]uint64, (n+63)/64)}
				seen := map[int32]bool{}
				var want []int32
				keep := func(id int32) {
					if !seen[id] {
						seen[id] = true
						want = append(want, id)
					}
				}
				for _, id := range members {
					set.Add(id)
					added.Add(id)
					keep(id)
				}
				for _, e := range c.order {
					list := f.appendList(e, nil)
					if got := f.CollectEntry(e, &set); got != len(list) {
						t.Fatalf("%s, %s: entry %d reported %d postings, holds %d", name, c.what, e, got, len(list))
					}
					for _, id := range list {
						added.Add(id)
						keep(id)
					}
				}
				for _, got := range []IDSet{set, added} {
					if !slices.Equal(got.IDs, want) {
						t.Fatalf("%s, %s, members %v: collected %v, the map %v", name, c.what, members, got.IDs, want)
					}
					for id := range int32(n) {
						if bit := got.Seen[id/64]>>(id%64)&1 == 1; bit != seen[id] {
							t.Fatalf("%s, %s, members %v: id %d has bit %v, is a member %v", name, c.what, members, id, bit, seen[id])
						}
					}
				}
				for _, s := range []*IDSet{&set, &added} {
					s.Reset()
					if len(s.IDs) != 0 || slices.ContainsFunc(s.Seen, func(w uint64) bool { return w != 0 }) {
						t.Fatalf("%s, %s: Reset left %d ids, bitmap %x", name, c.what, len(s.IDs), s.Seen)
					}
				}
			}
		}
	}
}
