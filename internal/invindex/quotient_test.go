package invindex

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// TestQuotientLayoutAgrees: an index of the quotient layout is the plain
// map from each key to its ids to every reader. At widths 1 to 64, on
// random rows and on skewed ones (most bits zero: few keys, long lists),
// one key an id and three: every row's key, and keys no row holds —
// random ones and rows' keys with a bit past the width — look up to the
// map's list by word, by bytes, by LookupKey and in a LookupWords batch,
// with the map's count, and collect it by CollectWord; CollectWithin at
// radii from 0 to the width gathers the ids of the map's keys within
// them, and Histogram counts the map's postings at every distance; Range
// shows the map, and ForEachEntry lists each entry's key's ids; and
// SizeBytes is the ArenaBreakdown plus the struct.
func TestQuotientLayoutAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const n = 200
	for width := 1; width <= 64; width++ {
		for _, skewed := range []bool{false, true} {
			for _, per := range []int{1, 3} {
				what := fmt.Sprintf("width %d skewed=%v per=%d", width, skewed, per)
				rows := make([]uint64, n*per)
				for i := range rows {
					rows[i] = rng.Uint64()
					if skewed {
						rows[i] &= rng.Uint64() & rng.Uint64()
					}
					rows[i] &= wordMask(width)
				}
				f := freezeRows(n, per, width, rows, hashLayout)
				ref := refPostings(n, per, width, rows)
				if !f.quotient() || f.NumKeys() != len(ref) {
					t.Fatalf("%s: quotient layout %v, %d keys; the map holds %d", what, f.quotient(), f.NumKeys(), len(ref))
				}
				kb, pb, eb, db := f.ArenaBreakdown()
				if f.SizeBytes() != kb+pb+eb+db+frozenStructBytes {
					t.Fatalf("%s: SizeBytes %d, the components and struct %d", what, f.SizeBytes(), kb+pb+eb+db+frozenStructBytes)
				}

				probes := slices.Clone(rows)
				for range 64 {
					probes = append(probes, rng.Uint64()&wordMask(width))
					if width < 64 {
						probes = append(probes, rows[rng.Intn(len(rows))]|1<<(width+rng.Intn(64-width)))
					}
				}
				var buf []byte
				set := IDSet{Seen: make([]uint64, (n+63)/64)}
				for _, k := range probes {
					want := ref[string(binary.LittleEndian.AppendUint64(nil, k)[:f.keyLen])]
					if k > wordMask(width) {
						want = nil
					}
					e := f.lookupWord(k)
					if !slices.Equal(entryIDs(f, e), want) || f.PostingLenWord(k) != len(want) || f.EntryLen(e) != len(want) {
						t.Fatalf("%s: key %#x found as entry %d listing %v, the map %v", what, k, e, entryIDs(f, e), want)
					}
					if got := f.LookupKey([]uint64{k}, &buf); got != e {
						t.Fatalf("%s: key %#x: LookupKey %d, lookupWord %d", what, k, got, e)
					}
					if k <= wordMask(width) {
						key := binary.LittleEndian.AppendUint64(nil, k)[:f.keyLen]
						if got := f.lookupBytes(key); got != e || !slices.Equal(f.AppendPostingsBytes(key, nil), want) {
							t.Fatalf("%s: key %#x: by bytes entry %d, by word %d", what, k, got, e)
						}
					}
					if got := f.CollectWord(k, &set); got != len(want) {
						t.Fatalf("%s: key %#x collects %d postings, the map lists %d", what, k, got, len(want))
					}
					set.Reset()
				}
				batch := slices.Repeat([]*Frozen{f}, len(probes))
				entries, counts := make([]int32, len(probes)), make([]uint32, len(probes))
				LookupWords(batch, probes, entries, counts)
				for i, k := range probes {
					if e := f.lookupWord(k); int(entries[i]) != e || int(counts[i]) != f.count(e) {
						t.Fatalf("%s: key %#x: batch entry %d count %d, alone %d count %d", what, k, entries[i], counts[i], e, f.count(e))
					}
				}

				q := []uint64{rows[rng.Intn(len(rows))] ^ 1<<rng.Intn(width)}
				wantHist := make([]int64, 65)
				for key, ids := range ref {
					wantHist[bits.OnesCount64(wordOf(key)^q[0])] += int64(len(ids))
				}
				hist := make([]int64, 65)
				f.Histogram(q, hist)
				if !slices.Equal(hist, wantHist) {
					t.Fatalf("%s: histogram %v, the map's %v", what, hist, wantHist)
				}
				for _, radius := range []int{0, 1, 2, width / 2, width} {
					var wantIDs []int32
					var wantSum int64
					for key, ids := range ref {
						if bits.OnesCount64(wordOf(key)^q[0]) <= radius {
							wantIDs, wantSum = append(wantIDs, ids...), wantSum+int64(len(ids))
						}
					}
					slices.Sort(wantIDs)
					wantIDs = slices.Compact(wantIDs)
					sum := f.CollectWithin(q, radius, &set)
					got := slices.Sorted(slices.Values(set.IDs))
					set.Reset()
					if sum != wantSum || !slices.Equal(got, wantIDs) {
						t.Fatalf("%s radius %d: the scan decodes %d postings into %v, the map %d into %v", what, radius, sum, got, wantSum, wantIDs)
					}
				}

				keys, lists := rangeOf(f)
				if len(keys) != len(ref) {
					t.Fatalf("%s: Range shows %d keys, the map %d", what, len(keys), len(ref))
				}
				for i, key := range keys {
					if !slices.Equal(lists[i], ref[key]) {
						t.Fatalf("%s: Range lists %v under % x, the map %v", what, lists[i], key, ref[key])
					}
				}
				all := f.keyBytes()
				for e := range f.NumKeys() {
					if key := all[e*f.keyLen : (e+1)*f.keyLen]; !slices.Equal(entryIDs(f, e), ref[string(key)]) {
						t.Fatalf("%s: entry %d lists %v, its key % x %v", what, e, entryIDs(f, e), key, ref[string(key)])
					}
				}
			}
		}
	}
}
