package invindex

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// kernelSection makes a quotient-layout section of n distinct random
// width-bit keys for maxID ids: every fifth entry a list — of two ids, of
// two 5-byte varints, which only an id bound past 2²⁹ holds, or long, of
// 30 to 89 ids of every varint length the bound allows — where lists says
// so, the rest one id each, the largest maxID − 1.
func kernelSection(rng *rand.Rand, width, n int, maxID int32, lists string) *Frozen {
	seen := map[uint64]bool{}
	keys := make([]string, 0, n)
	for len(keys) < n {
		x := rng.Uint64() & wordMask(width)
		if !seen[x] {
			seen[x] = true
			keys = append(keys, narrowKey(x, KeyLen(width)))
		}
	}
	keys = hashOrder(width, keys)
	posts := make([]post, n)
	for e := range posts {
		posts[e] = post{ref: uint32(rng.Int31n(maxID))}
		switch {
		case e == n/2:
			posts[e].ref = uint32(maxID - 1)
		case e%5 != 2 || lists == "none":
		case lists == "a bad list" && e == n/3-n/3%5+2:
			// Lists whose terminators are as many as their ids, which a word
			// judge may count right and the byte loop refuses: a zero of five
			// continuation bytes and a terminator, or one continuation byte
			// after the ids, in spans of 8 bytes or fewer and of 9 or more.
			posts[e] = post{list: [][]byte{
				{0, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0},
				{1, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0, 1},
				{0, 1, 2, 0x81},
				{5, 1, 1, 1, 1, 1, 1, 1, 0x81},
			}[rng.Intn(4)]}
		case lists == "two ids" || lists == "a bad list":
			a := uint64(rng.Int31n(maxID / 2))
			posts[e] = listOf(2, a, uint64(rng.Int31n(maxID/2)))
		case lists == "long":
			deltas := make([]uint64, 30+rng.Intn(60))
			for i := range deltas {
				deltas[i] = uint64(rng.Int63n(int64(maxID)/int64(2*len(deltas)) + 1))
			}
			if maxID > 1<<29 {
				deltas[rng.Intn(len(deltas))] = 1 << 28 // a 5-byte varint
			}
			posts[e] = listOf(len(deltas), deltas...)
		default:
			posts[e] = listOf(2, 1<<28+uint64(rng.Intn(1000)), 1<<28)
		}
	}
	f := handSection(width, maxID, keys, posts, nil)
	f.keyArena = append(f.keyArena, make([]byte, keyPad(f.remLen, n))...)
	return f
}

// TestKernelsAcrossWidths crosses what the kernels' lanes and blocks
// depend on — refs of 1 to 4 bytes, remainders of 1 to 8, id bounds on
// either side of 2¹⁶ (a split of 17 bits is no 16-bit lane's), key counts
// on either side of a group, a block of refs and a block of keys, no
// lists, lists of two ids, of 5-byte varints and of more than a vector's
// bytes, and one list that holds a 6-byte varint or ends in a
// continuation byte — and holds every arm to the reference on each section and on
// edits where the kernels read: a remainder equal to the one before it,
// a remainder bit at its width, a directory offset below the one before
// it, a one-id ref turned into a list's, a list byte's continuation bit
// flipped.
func TestKernelsAcrossWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	refLens, remLens, split17 := map[int]bool{}, map[int]bool{}, false
	for rl := 1; rl <= 8; rl++ {
		for _, n := range []int{63, 64, 65, 129, scanBlock, scanBlock + 1, keyBlock + 1, keyBlock + 66} {
			width := min(64, bucketBits(n)+8*rl-2)
			if remBytes(width, n) != rl {
				continue // no width of at most 64 bits gives n keys remainders of rl bytes
			}
			for _, maxID := range []int32{100, 0xFFFF, 0x10000, 1 << 30} {
				for _, lists := range []string{"none", "two ids", "5-byte varints", "long", "a bad list"} {
					f := kernelSection(rng, width, n, maxID, lists)
					refLens[f.refLen], remLens[f.remLen] = true, true
					split17 = split17 || f.refLen == 2 && maxID == 0x10000
					name := fmt.Sprintf("%d-byte remainders, %d-byte refs, n=%d, maxID=%#x, lists: %s", f.remLen, f.refLen, n, maxID, lists)
					sameVerdict(t, frozenBytes(f), maxID, name)
					for range 8 {
						g, what := kernelEdit(rng, f)
						sameVerdict(t, frozenBytes(g), maxID, name+": "+what)
					}
				}
			}
		}
	}
	for w := 1; w <= 8; w++ {
		if !remLens[w] || w <= 4 && !refLens[w] {
			t.Errorf("no section had %d-byte remainders (%v) or refs (%v)", w, remLens[w], refLens[w])
		}
	}
	if !split17 {
		t.Error("no section had 2-byte refs under an id bound of 2¹⁶")
	}
}

// kernelEdit returns a copy of f with one of kernelSection's edits, at an
// entry next to a group's or a block's seam, and says which.
func kernelEdit(rng *rand.Rand, f *Frozen) (*Frozen, string) {
	g := &Frozen{keyArena: slices.Clone(f.keyArena), keyLen: f.keyLen, remLen: f.remLen, width: f.width, postArena: slices.Clone(f.postArena),
		refs: slices.Clone(f.refs), refLen: f.refLen, numKeys: f.numKeys, postings: f.postings, dir16: slices.Clone(f.dir16),
		dir32: slices.Clone(f.dir32), dirShift: f.dirShift, maxID: f.maxID}
	n, rl := f.numKeys, f.remLen
	seams := []int{1, 2, 63, 64, 65, scanBlock, keyBlock, keyBlock + 1, keyBlock + 64, n - 1}
	e := min(seams[rng.Intn(len(seams))], n-1)
	switch rng.Intn(6) {
	case 0:
		copy(g.keyArena[rl*e:rl*(e+1)], g.keyArena[rl*(e-1):rl*e])
		return g, fmt.Sprintf("remainder %d copied from the one before", e)
	case 1:
		bit := int(g.dirShift) + 1
		if bit < 8*rl {
			g.keyArena[rl*e+bit/8] |= 1 << (bit % 8)
		}
		return g, fmt.Sprintf("remainder %d's bit %d set", e, bit)
	case 2:
		b := 1 + rng.Intn(max(1, len(g.dir16)+len(g.dir32)-2))
		if g.dir16 != nil {
			g.dir16[b] = g.dir16[b-1] - 1
		} else {
			g.dir32[b] = g.dir32[b-1] - 1
		}
		return g, fmt.Sprintf("directory offset %d one below the one before", b)
	case 3:
		var r [4]byte
		binary.LittleEndian.PutUint32(r[:], uint32(f.maxID)+uint32(rng.Intn(3)))
		copy(g.refs[f.refLen*e:f.refLen*(e+1)], r[:])
		return g, fmt.Sprintf("ref %d a list's", e)
	}
	if len(g.postArena) == 0 {
		return g, "nothing: no lists"
	}
	at := len(g.postArena) - 1 - rng.Intn(min(len(g.postArena), 3))
	if rng.Intn(2) == 0 {
		at = rng.Intn(len(g.postArena))
	}
	g.postArena[at] ^= 0x80
	return g, fmt.Sprintf("posting byte %d's continuation bit flipped", at)
}
