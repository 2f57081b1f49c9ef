package invindex

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// rangeOf is what Range shows of f: each key and its ids, in key order.
func rangeOf(f *Frozen) (keys []string, lists [][]int32) {
	f.Range(func(key []byte, ids []int32) bool {
		keys = append(keys, string(key))
		lists = append(lists, slices.Clone(ids))
		return true
	})
	return keys, lists
}

// entryIDs is entry e's list by ForEachEntry, nil for e = −1.
func entryIDs(f *Frozen, e int) []int32 {
	var ids []int32
	f.ForEachEntry(e, func(id int32) bool { ids = append(ids, id); return true })
	return ids
}

// TestBitmapLayoutAgrees: the same rows frozen in the hash layout and in
// the bitmap layout are one index to every reader. At widths 1 to 20, on
// random rows and on skewed ones (most bits zero: few keys, long lists),
// one key an id and three, every key of the space (below 2¹², and every
// row's beyond) — and keys with a bit past the width — looks up to the
// same list by word, by bytes, by LookupKey and in a LookupWords batch
// that mixes the two layouts, with the same count; CollectWord,
// CollectWithin at every radius, Histogram, Range and ForEachEntry agree;
// the bitmap's entries ascend by key; and each layout's SizeBytes is its
// ArenaBreakdown plus the struct.
func TestBitmapLayoutAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const n = 300
	for width := 1; width <= 20; width++ {
		for _, skewed := range []bool{false, true} {
			for _, per := range []int{1, 3} {
				rows := make([]uint64, n*per)
				for i := range rows {
					rows[i] = rng.Uint64()
					if skewed {
						rows[i] &= rng.Uint64() & rng.Uint64()
					}
					rows[i] &= 1<<width - 1
				}
				hash, bm := freezeRows(n, per, width, rows, hashLayout), freezeRows(n, per, width, rows, bitmapLayout)
				what := "random"
				if skewed {
					what = "skewed"
				}
				if hash.Bitmap() || !bm.Bitmap() {
					t.Fatalf("width %d %s: layouts %v and %v, want the hash's and the bitmap's", width, what, hash.Bitmap(), bm.Bitmap())
				}
				for _, f := range []*Frozen{hash, bm} {
					kb, pb, eb, db := f.ArenaBreakdown()
					if f.SizeBytes() != kb+pb+eb+db+frozenStructBytes {
						t.Fatalf("width %d %s bitmap=%v: SizeBytes %d, the components and struct %d", width, what, f.bitmap, f.SizeBytes(), kb+pb+eb+db+frozenStructBytes)
					}
				}

				// Every key of the space, and some with a bit past the width.
				probes := make([]uint64, 0, 1<<width+64)
				for k := range uint64(min(1<<width, 1<<12)) {
					probes = append(probes, k)
				}
				if width > 12 {
					probes = append(probes, rows...)
				}
				for range 64 {
					probes = append(probes, rng.Uint64()&(1<<width-1)|1<<(width+rng.Intn(64-width)))
				}
				batch := make([]*Frozen, 0, 2*len(probes))
				words := make([]uint64, 0, 2*len(probes))
				var buf []byte
				hashSet, bmSet := IDSet{Seen: make([]uint64, (n+63)/64)}, IDSet{Seen: make([]uint64, (n+63)/64)}
				for _, k := range probes {
					eh, eb := hash.lookupWord(k), bm.lookupWord(k)
					if (eh < 0) != (eb < 0) || !slices.Equal(entryIDs(hash, eh), entryIDs(bm, eb)) {
						t.Fatalf("width %d %s: key %#x lists %v in the hash layout, %v in the bitmap", width, what, k, entryIDs(hash, eh), entryIDs(bm, eb))
					}
					if hash.PostingLenWord(k) != bm.PostingLenWord(k) || hash.EntryLen(eh) != bm.EntryLen(eb) {
						t.Fatalf("width %d %s: key %#x counts %d and %d", width, what, k, hash.PostingLenWord(k), bm.PostingLenWord(k))
					}
					if got := bm.LookupKey([]uint64{k}, &buf); got != eb {
						t.Fatalf("width %d %s: key %#x: LookupKey %d, lookupWord %d", width, what, k, got, eb)
					}
					if k < 1<<(8*bm.keyLen) {
						key := binary.LittleEndian.AppendUint64(nil, k)[:bm.keyLen]
						if got := bm.lookupBytes(key); got != eb || !slices.Equal(bm.AppendPostingsBytes(key, nil), hash.AppendPostingsBytes(key, nil)) {
							t.Fatalf("width %d %s: key %#x: by bytes entry %d, by word %d, or other lists", width, what, k, got, eb)
						}
					}
					if hash.CollectWord(k, &hashSet) != bm.CollectWord(k, &bmSet) {
						t.Fatalf("width %d %s: key %#x collects other lengths", width, what, k)
					}
					batch = append(batch, hash, bm)
					words = append(words, k, k)
				}
				if !slices.Equal(hashSet.IDs, bmSet.IDs) {
					t.Fatalf("width %d %s: CollectWord over every key gathers other ids", width, what)
				}
				entries, counts := make([]int32, len(batch)), make([]uint32, len(batch))
				LookupWords(batch, words, entries, counts)
				for i, f := range batch {
					if e := f.lookupWord(words[i]); int(entries[i]) != e || int(counts[i]) != f.count(e) {
						t.Fatalf("width %d %s bitmap=%v: key %#x: batch entry %d count %d, alone %d count %d", width, what, f.bitmap, words[i], entries[i], counts[i], e, f.count(e))
					}
				}

				// The key scans, around a row's key with a bit flipped.
				q := []uint64{rows[rng.Intn(len(rows))] ^ 1<<rng.Intn(width)}
				hh, hb := make([]int64, 65), make([]int64, 65)
				hash.Histogram(q, hh)
				bm.Histogram(q, hb)
				if !slices.Equal(hh, hb) {
					t.Fatalf("width %d %s: histograms %v and %v", width, what, hh, hb)
				}
				for radius := 0; radius <= width; radius++ {
					hs, bs := IDSet{Seen: make([]uint64, (n+63)/64)}, IDSet{Seen: make([]uint64, (n+63)/64)}
					sh, sb := hash.CollectWithin(q, radius, &hs), bm.CollectWithin(q, radius, &bs)
					slices.Sort(hs.IDs)
					slices.Sort(bs.IDs)
					if sh != sb || !slices.Equal(hs.IDs, bs.IDs) {
						t.Fatalf("width %d %s radius %d: the scans decode %d and %d postings into %d and %d ids", width, what, radius, sh, sb, len(hs.IDs), len(bs.IDs))
					}
				}
				if bm.CollectWithin(append(q, 0), width, &IDSet{Seen: make([]uint64, (n+63)/64)}) != 0 {
					t.Fatalf("width %d %s: a two-word query matched one-word keys", width, what)
				}

				hk, hl := rangeOf(hash)
				bk, bl := rangeOf(bm)
				if !slices.Equal(hk, bk) || !slices.EqualFunc(hl, bl, slices.Equal) {
					t.Fatalf("width %d %s: Range shows other keys or lists", width, what)
				}
				// Entry by entry, in the bitmap's ascending key order.
				keys, prev := bm.keyBytes(), int64(-1)
				for e := range bm.NumKeys() {
					key := keys[e*bm.keyLen : (e+1)*bm.keyLen]
					if !slices.Equal(entryIDs(bm, e), entryIDs(hash, hash.lookupBytes(key))) {
						t.Fatalf("width %d %s: entry %d lists other ids than its key's in the hash layout", width, what, e)
					}
					k := int64(binary.LittleEndian.Uint64(append(slices.Clone(key), make([]byte, 8)...)))
					if k <= prev {
						t.Fatalf("width %d %s: entry %d's key %#x follows %#x", width, what, e, k, prev)
					}
					prev = k
				}
			}
		}
	}
}
