package invindex

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gph/internal/binio"
)

// The reference: the content tier as an entry-by-entry walk — every key's
// hash compared with the one before it and, where the two tie, the keys
// with bytes.Compare, every entry's postings checked where the
// walk reaches it, each list decoded a byte at a time from where the one
// before it ended, and the key widths checked a bit at a time in a pass
// of their own behind all of it, then the widths of the refs and counts,
// each entry's read a byte at a time. A bitmap's keys are counted a bit
// at a time before the walk, which has no order to check, and its width
// and pad are checked a bit at a time where the keys' widths are. The
// fast paths keep every check; these keep them honest about that.

func refValidate(f *Frozen, width int) error {
	numKeys := f.NumKeys()
	counts := entryCounts(f)
	var total int64
	for _, c := range counts {
		total += int64(c)
	}
	if total != f.postings {
		return fmt.Errorf("invindex: frozen counts sum to %d postings, header says %d", total, f.postings)
	}
	for i := f.keyLen * numKeys; i < len(f.keyArena) && !f.bitmap; i++ {
		if b := f.keyArena[i]; b != 0 {
			return fmt.Errorf("invindex: key arena pad byte %d is %#x, not 0", i-f.keyLen*numKeys, b)
		}
	}
	for i, b := range f.refs[f.refLen*numKeys:] {
		if b != 0 {
			return fmt.Errorf("invindex: ref pad byte %d is %#x, not 0", i, b)
		}
	}
	if f.bitmap {
		keys := 0
		for k := range 8 * len(f.keyArena) {
			keys += int(f.keyArena[k/8] >> (k % 8) & 1)
		}
		if keys != numKeys {
			return fmt.Errorf("invindex: the bitmap holds %d keys, the section %d entries", keys, numKeys)
		}
	}
	refs := make([]uint32, numKeys)
	for e := range refs {
		for i := f.refLen - 1; i >= 0; i-- {
			refs[e] = refs[e]<<8 | uint32(f.refs[e*f.refLen+i])
		}
	}
	pos := 0
	for e := 0; e < numKeys; e++ {
		if e > 0 && !f.bitmap {
			if err := refOrder(f, e); err != nil {
				return err
			}
		}
		switch c, ref := counts[e], refs[e]; {
		case c == 0:
			return fmt.Errorf("invindex: frozen entry %d has no postings", e)
		case c == 1:
			if int64(ref) >= int64(f.maxID) {
				return fmt.Errorf("invindex: frozen entry %d: posting id %d outside [0,%d)", e, ref, f.maxID)
			}
		case int64(ref) != int64(pos):
			return fmt.Errorf("invindex: frozen entry %d: list starts at byte %d, the lists before it end at %d", e, ref, pos)
		default:
			n, err := refValidateList(f.postArena[pos:], int(c), f.maxID)
			if err != nil {
				return fmt.Errorf("invindex: frozen entry %d: %w", e, err)
			}
			pos += n
		}
	}
	if pos != len(f.postArena) {
		return fmt.Errorf("invindex: frozen lists end at byte %d of the %d-byte posting arena", pos, len(f.postArena))
	}
	if width >= 0 {
		packed := (width + 7) / 8 // a partition of up to 64 bits keeps its bytes,
		if width > 64 {
			packed = 8 * ((width + 63) / 64) // a wider one whole words
		}
		keys := numKeys
		if f.bitmap {
			if err := refBitmapWidth(f, width, packed); err != nil {
				return err
			}
			keys = 0 // no key arena to walk
		}
		for e := range keys {
			key := f.key(e)
			if len(key) != packed {
				return fmt.Errorf("invindex: key %d is %d bytes, a %d-bit projection packs to %d", e, len(key), width, packed)
			}
			for bit := width; bit < 8*len(key); bit++ {
				if key[bit/8]>>(bit%8)&1 != 0 {
					return fmt.Errorf("invindex: key %d has bits set beyond dimension %d", e, width)
				}
			}
		}
	}
	most, top := uint32(0), uint32(0)
	for e := range numKeys {
		most, top = max(most, counts[e]), max(top, refs[e])
	}
	if f.counts32 != nil && most < 256 {
		return fmt.Errorf("invindex: counts are 4 bytes wide, and the largest, %d, fits one", most)
	}
	need := 1
	for need < 4 && uint64(top) >= 1<<(8*need) {
		need++
	}
	if f.refLen != need {
		return fmt.Errorf("invindex: refs are %d bytes wide, and the largest, %d, needs %d", f.refLen, top, need)
	}
	return nil
}

// refBitmapWidth is the reference's check that f's bitmap is that of a
// width-bit partition whose keys pack to packed bytes: keys of that
// length, a bitmap of 2^width bits, at least 64, and none set at or past
// 2^width — in a whole byte past the bitmap's, a pad byte set.
func refBitmapWidth(f *Frozen, width, packed int) error {
	if f.keyLen != packed {
		return fmt.Errorf("invindex: bitmap keys are %d bytes, a %d-bit projection packs to %d", f.keyLen, width, packed)
	}
	want := 8
	if width > maxBitmapWidth {
		want = 1 << maxBitmapWidth / 8
	} else if width > 6 {
		want = 1 << width / 8
	}
	if len(f.keyArena) != want || width > maxBitmapWidth {
		return fmt.Errorf("invindex: a bitmap of %d bytes, a %d-bit partition's takes %d", len(f.keyArena), width, want)
	}
	for k := 1 << width; k < 8*len(f.keyArena); k++ {
		if f.keyArena[k/8]>>(k%8)&1 == 0 {
			continue
		}
		if held := (1<<width + 7) / 8; k/8 >= held {
			return fmt.Errorf("invindex: bitmap pad byte %d is %#x, not 0", k/8-held, f.keyArena[k/8])
		}
		return fmt.Errorf("invindex: bitmap key %d has bits set beyond dimension %d", k, width)
	}
	return nil
}

// refBucket is the bucket of f's key e: the top b bits of its hash, 2^b
// the largest power of two below the key count, 0 for two keys or fewer.
func refBucket(f *Frozen, e int) uint64 {
	b := 0
	for 2<<b < f.NumKeys() {
		b++
	}
	if b == 0 {
		return 0
	}
	return hashKey(f.key(e)) >> (64 - b)
}

// refOrder judges key e against key e − 1: a hash below the one before,
// or an equal one with a key not above the one before, is out of order —
// in the bucket before's, or in a bucket below it; a section whose keys
// are all in plain lexicographic order says so.
func refOrder(f *Frozen, e int) error {
	h, prevH := hashKey(f.key(e)), hashKey(f.key(e-1))
	if h > prevH || h == prevH && bytes.Compare(f.key(e-1), f.key(e)) < 0 {
		return nil
	}
	b, prev := refBucket(f, e), refBucket(f, e-1)
	if b == prev {
		return fmt.Errorf("invindex: frozen keys not in strict hash order at entry %d, in bucket %d", e, b)
	}
	var keys [][]byte
	for i := range f.NumKeys() {
		keys = append(keys, f.key(i))
	}
	if slices.IsSortedFunc(keys, bytes.Compare) && len(slices.CompactFunc(keys, bytes.Equal)) == f.NumKeys() {
		return fmt.Errorf("invindex: frozen keys are in plain lexicographic order, not in hash order")
	}
	return fmt.Errorf("invindex: frozen key %d hashes to bucket %d, behind a key of bucket %d", e, b, prev)
}

// entryCounts returns f's posting counts, whatever their width.
func entryCounts(f *Frozen) []uint32 {
	counts := make([]uint32, f.NumKeys())
	for e := range counts {
		counts[e] = f.countAt(e)
	}
	return counts
}

// setRef writes v over entry e's ref, in the ref's refLen bytes.
func setRef(f *Frozen, e int, v uint32) {
	b := binary.LittleEndian.AppendUint32(nil, v)
	copy(f.refs[e*f.refLen:(e+1)*f.refLen], b)
}

// setCount writes c over entry e's count, at the count's width.
func setCount(f *Frozen, e int, c uint32) {
	if f.counts32 != nil {
		f.counts32[e] = c
	} else {
		f.counts8[e] = uint8(c)
	}
}

// refValidateList decodes count delta-varints from the front of b,
// checking framing and that every id lies in [0, maxID); it returns the
// bytes they take.
func refValidateList(b []byte, count int, maxID int32) (int, error) {
	var prev int64
	i := 0
	for range count {
		var v uint64
		var shift uint
		for {
			if i >= len(b) {
				return 0, fmt.Errorf("truncated varint")
			}
			c := b[i]
			i++
			v |= uint64(c&0x7f) << shift
			if c < 0x80 {
				break
			}
			shift += 7
			if shift > 28 { // a sixth byte: 35 bits are in, the id range judges the value
				return 0, fmt.Errorf("varint longer than 5 bytes")
			}
		}
		prev += int64(v)
		if prev >= int64(maxID) {
			return 0, fmt.Errorf("posting id %d outside [0,%d)", prev, maxID)
		}
	}
	return i, nil
}

// readUnvalidated parses a serialized section in place, content tier
// not run: nil when the structural tier already rejects the bytes.
func readUnvalidated(data []byte, maxID int32) *Frozen {
	br := binio.NewReader(binio.NewSource(data))
	h, err := ReadFrozenHeader(br, maxID)
	if err != nil {
		return nil
	}
	f, err := h.ReadPayload(br)
	if err != nil {
		return nil
	}
	return f
}

// sameVerdict holds the content tier to the reference on one section:
// the same error — check, entry and all — or none from either.
func sameVerdict(t testing.TB, data []byte, maxID int32, width int, what string) {
	t.Helper()
	f := readUnvalidated(data, maxID)
	if f == nil {
		return
	}
	got, want := f.validateContent(width), refValidate(f, width)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s, width %d:\n  content tier: %v\n  reference:    %v", what, width, got, want)
	}
}

// wordKey is the 8-byte little-endian key holding w.
func wordKey(w uint64) string { return narrowKey(w, 8) }

// narrowKey is the n-byte little-endian key holding w.
func narrowKey(w uint64, n int) string {
	var k [8]byte
	binary.LittleEndian.PutUint64(k[:], w)
	return string(k[:n])
}

// post is one hand-made entry's postings as a section holds them: the
// bytes of a list, which go to the arena and give the entry the ref
// where they start, or, with no bytes, the ref itself — the id of a
// one-id entry.
type post struct {
	ref  uint32
	list []byte
}

// handSection makes a section by hand — keys in the order given, each
// with its postings and the count it claims, then pad — so a test can
// hold exactly the corruption it means to, a ref or the arena changed
// before the section is written.
func handSection(keys []string, posts []post, counts []uint32, pad []byte) *Frozen {
	f := &Frozen{keyLen: len(keys[0])}
	refs := make([]uint32, len(keys))
	for i, k := range keys {
		f.keyArena = append(f.keyArena, k...)
		refs[i] = posts[i].ref
		if posts[i].list != nil {
			refs[i] = uint32(len(f.postArena))
			f.postArena = append(f.postArena, posts[i].list...)
		}
		f.addCount(int(counts[i]))
		f.postings += int64(counts[i])
	}
	f.keyArena = append(f.keyArena, pad...)
	f.packRefs(refs)
	return f
}

// handFrozen serializes handSection's section with the zero pad
// FreezeRows writes after keys shorter than a word.
func handFrozen(keys []string, posts []post, counts []uint32) []byte {
	return handFrozenPad(keys, posts, counts, make([]byte, keyPad(len(keys[0]), len(keys))))
}

// handFrozenPad is handFrozen with the bytes after the keys given.
func handFrozenPad(keys []string, posts []post, counts []uint32, pad []byte) []byte {
	return frozenBytes(handSection(keys, posts, counts, pad))
}

// fastPathSeeds are the sections the fast paths could get wrong and an
// entry-by-entry walk would not, each with the id bound and the key
// width it is judged at; FuzzReadFrozen starts from them.
func fastPathSeeds() []struct {
	name  string
	data  []byte
	maxID int32
	width int
} {
	one := func(keys []string, posts []post) []byte {
		counts := make([]uint32, len(keys))
		for i := range counts {
			counts[i] = 1
		}
		return handFrozen(keys, posts, counts)
	}
	id := func(v uint32) post { return post{ref: v} }
	ids := func(deltas ...uint64) post {
		var b []byte
		for _, d := range deltas {
			b = binary.AppendUvarint(b, d)
		}
		return post{list: b}
	}
	raw := func(b ...byte) post { return post{list: b} }
	// edit writes a hand-made section after change has had its way with it.
	edit := func(keys []string, posts []post, counts []uint32, change func(f *Frozen)) []byte {
		f := handSection(keys, posts, counts, nil)
		change(f)
		return frozenBytes(f)
	}
	// Two keys in hash order, and three, which take two buckets.
	pair := hashOrder([]string{wordKey(1), wordKey(2)})
	k1, k2 := pair[0], pair[1]
	three := hashOrder([]string{wordKey(1), wordKey(2), wordKey(3)})
	// inOrder is keys, two, in hash order, or against it.
	inOrder := func(against bool, keys ...string) []string {
		keys = hashOrder(keys)
		if against {
			slices.Reverse(keys)
		}
		return keys
	}
	seeds := []struct {
		name  string
		data  []byte
		maxID int32
		width int
	}{
		{"a multi-byte varint ending a list", handFrozen([]string{k1}, []post{ids(0, 300)}, []uint32{2}), 301, 64},
		{"a list cut inside its last varint", handFrozen([]string{k1}, []post{raw(0x01, 0xac)}, []uint32{2}), 301, 64},
		// Five bytes carry 35 bits: past 32 the value fails the id range, and
		// a sixth byte is what the framing check is for.
		{"a 5-byte varint overflowing 32 bits", handFrozen([]string{k1}, []post{raw(0, 0xff, 0xff, 0xff, 0xff, 0x7f)}, []uint32{2}), math.MaxInt32, 64},
		{"a 6-byte varint", handFrozen([]string{k1}, []post{raw(0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00)}, []uint32{2}), math.MaxInt32, 64},
		{"a 5-byte varint that fits", handFrozen([]string{k1}, []post{raw(0, 0xff, 0xff, 0xff, 0xff, 0x06)}, []uint32{2}), math.MaxInt32, 64},
		{"a singleton ref = maxID", one([]string{k1}, []post{id(40)}), 40, 64},
		{"a singleton ref = maxID − 1", one([]string{k1}, []post{id(39)}), 40, 64},
		{"a singleton ref of 2³² − 1", one([]string{k1}, []post{id(math.MaxUint32)}), math.MaxInt32, 64},
		{"a singleton ref against a negative maxID", one([]string{k1}, []post{id(0)}), -28, 64},
		{"a count one over its list", handFrozen([]string{k1}, []post{ids(3, 1)}, []uint32{3}), 40, 64},
		{"a count one under its list", handFrozen([]string{k1}, []post{ids(3, 1, 1)}, []uint32{2}), 40, 64},
		{"equal adjacent keys", one([]string{wordKey(5), wordKey(5)}, []post{id(0), id(1)}), 2, 64},
		// Byte 7 is the big end of the little-endian word the key scans
		// hash, byte 0 the little end.
		{"keys differing only in byte 7, in hash order", one(inOrder(false, wordKey(1), wordKey(1|1<<56)), []post{id(0), id(1)}), 2, 64},
		{"keys differing only in byte 7, against hash order", one(inOrder(true, wordKey(1), wordKey(1|1<<56)), []post{id(0), id(1)}), 2, 64},
		{"keys differing only in byte 0, in hash order", one(inOrder(false, wordKey(1<<56), wordKey(1|1<<56)), []post{id(0), id(1)}), 2, 64},
		{"keys differing only in byte 0, against hash order", one(inOrder(true, wordKey(1<<56), wordKey(1|1<<56)), []post{id(0), id(1)}), 2, 64},
		{"a key bit at the partition width", one([]string{wordKey(1 << 61)}, []post{id(0)}), 1, 61},
		{"a key bit just inside the partition width", one([]string{wordKey(1 << 60)}, []post{id(0)}), 1, 61},
		{"a key bit at the width behind a bad list", handFrozen(inOrder(false, wordKey(1<<61), wordKey(1<<61|1<<8)),
			[]post{id(0), raw(0, 0x80)}, []uint32{1, 2}), 2, 61},
		{"one-word keys judged as two-word projections", one([]string{k1}, []post{id(0)}), 1, 70},

		// The list pass judges a list of up to 8 bytes from the word at its
		// start, a longer one a word at a time, and a list whose word would
		// cross the arena's end a byte at a time; a list ends where the next
		// list's ref says.
		{"a list in the arena's last 8 bytes", handFrozen([]string{k1, k2},
			[]post{ids(300, 1), ids(1, 1, 1, 1, 1, 1)}, []uint32{2, 6}), 400, 64},
		{"a list whose window crosses the arena's end", handFrozen([]string{k1, k2},
			[]post{ids(1, 1, 1, 1, 1, 1, 1, 1), ids(300, 1)}, []uint32{8, 2}), 400, 64},
		{"a several-id list of exactly 8 bytes", handFrozen([]string{k1},
			[]post{ids(1, 300, 300, 2, 3, 4)}, []uint32{6}), 611, 64},
		{"a several-id list of 9 bytes", handFrozen([]string{k1},
			[]post{ids(1, 300, 300, 2, 3, 4, 5)}, []uint32{7}), 616, 64},
		{"two ids summing to maxID − 1", handFrozen([]string{k1, k2},
			[]post{ids(300, 20000), ids(1, 1, 1)}, []uint32{2, 3}), 20301, 64},
		{"two ids summing to maxID", handFrozen([]string{k1, k2},
			[]post{ids(300, 20000), ids(1, 1, 1)}, []uint32{2, 3}), 20300, 64},
		{"a five-byte continuation run inside an 8-byte window", handFrozen([]string{k1, k2},
			[]post{raw(0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00), id(1)}, []uint32{2, 1}), math.MaxInt32, 64},
		{"a five-byte continuation run across a long list's words", handFrozen([]string{k1},
			[]post{{list: append(ids(1, 1, 1, 1, 1).list, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00)}}, []uint32{6}), math.MaxInt32, 64},
		{"a varint split across a long list's words", handFrozen([]string{k1},
			[]post{ids(1, 1, 1, 1, 1, 1, 1, 20000)}, []uint32{8}), 20008, 64},
		{"a varint split across a long list's words, last id = maxID", handFrozen([]string{k1},
			[]post{ids(1, 1, 1, 1, 1, 1, 1, 20000)}, []uint32{8}), 20007, 64},

		// The chain: each list starts where the one before it ends, the
		// first at the arena's start, and the last ends the arena. An entry
		// has postings, and one whose count says one holds its id in its ref.
		{"a list ref past the previous list's end", edit([]string{k1, k2},
			[]post{ids(1, 1), ids(1, 1, 1)}, []uint32{2, 3}, func(f *Frozen) { setRef(f, 1, f.ref(1)+1) }), 10, 64},
		{"a list ref before the previous list's end", edit([]string{k1, k2},
			[]post{ids(1, 1), ids(1, 1, 1)}, []uint32{2, 3}, func(f *Frozen) { setRef(f, 1, f.ref(1)-1) }), 10, 64},
		{"a first list not at the arena's start", edit([]string{k1, k2},
			[]post{id(5), ids(1, 1)}, []uint32{1, 2}, func(f *Frozen) { f.postArena = append([]byte{7}, f.postArena...); setRef(f, 1, 1) }), 10, 64},
		{"a last list that stops short of the arena's end", edit([]string{k1, k2},
			[]post{ids(1, 1), id(7)}, []uint32{2, 1}, func(f *Frozen) { f.postArena = append(f.postArena, 0) }), 10, 64},
		{"singletons over an arena that is not empty", edit([]string{k1, k2},
			[]post{id(0), id(1)}, []uint32{1, 1}, func(f *Frozen) { f.postArena = []byte{0} }), 10, 64},
		{"an entry with count 0", handFrozen(three,
			[]post{id(0), {}, id(2)}, []uint32{1, 0, 1}), 10, 64},
		{"an entry with count 0 over a list", handFrozen([]string{k1, k2},
			[]post{ids(1, 1), ids(1, 1)}, []uint32{2, 0}), 10, 64},
		{"a count-1 entry in the middle of the chain", handFrozen(three,
			[]post{ids(1, 1), ids(3, 4), ids(1, 1, 1, 1, 1, 1)}, []uint32{2, 1, 6}), 40, 64},
		{"an entry with count 0 behind a bad list", handFrozen([]string{k1, k2},
			[]post{raw(0, 0x80), {}}, []uint32{2, 0}), 10, 64},
		{"a bad singleton behind a bad list", handFrozen([]string{k1, k2},
			[]post{raw(0, 0x80), id(50)}, []uint32{2, 1}), 10, 64},
		{"a bad list behind a bad singleton", handFrozen([]string{k1, k2},
			[]post{id(50), raw(0, 0x80)}, []uint32{1, 2}), 10, 64},
		{"a bad singleton behind a key out of order", one([]string{k2, k1}, []post{id(0), id(50)}), 10, 64},

		// Keys shorter than a word are loaded a word at a time too, the
		// bytes past each key masked off: the next key's, or the pad's.
		{"a key bit at the partition width, 2-byte keys", one([]string{narrowKey(1<<13, 2)}, []post{id(0)}), 1, 13},
		{"a key bit just inside the partition width, 2-byte keys", one([]string{narrowKey(1<<12, 2)}, []post{id(0)}), 1, 13},
		{"a key bit at the width of a partition of one byte", one([]string{narrowKey(1<<7, 1)}, []post{id(0)}), 1, 7},
		{"2-byte keys differing only in byte 1, against hash order", one(inOrder(true, narrowKey(1|1<<8, 2), narrowKey(1, 2)), []post{id(0), id(1)}), 2, 16},
		// Unmasked, the first load reads 01 00 01 00 ff ff and the second
		// 01 00 ff ff 00 00: two words, where the keys are equal.
		{"equal adjacent 2-byte keys before a larger one", one([]string{narrowKey(1, 2), narrowKey(1, 2), narrowKey(0xffff, 2)}, []post{id(0), id(1), id(2)}), 3, 16},
		{"2-byte keys judged as a 40-bit projection", one([]string{narrowKey(1, 2)}, []post{id(0)}), 1, 40},
		{"5-byte keys judged as a 64-bit projection", one([]string{narrowKey(1, 5)}, []post{id(0)}), 1, 64},
	}
	// Every key length shorter than a word, with its pad as FreezeRows
	// writes it, with a pad byte set, and with no pad at all.
	for kl := 1; kl < 8; kl++ {
		keys := hashOrder([]string{narrowKey(1, kl), narrowKey(2, kl)})
		posts := []post{id(0), ids(1, 300)}
		counts := []uint32{1, 2}
		set := make([]byte, 8-kl)
		set[len(set)-1] = 1
		for _, p := range []struct {
			what string
			pad  []byte
		}{{"pad intact", make([]byte, 8-kl)}, {"pad nonzero", set}, {"pad missing", nil}} {
			seeds = append(seeds, struct {
				name  string
				data  []byte
				maxID int32
				width int
			}{fmt.Sprintf("%d-byte keys, %s", kl, p.what), handFrozenPad(keys, posts, counts, p.pad), 302, 8*kl - 1})
		}
	}
	return seeds
}

// TestFastPathsRejectWhatTheReferenceRejects: the seeds above, each
// check's verdict spelled out, then the same verdict from both sides.
func TestFastPathsRejectWhatTheReferenceRejects(t *testing.T) {
	wantErr := map[string]string{
		"a list cut inside its last varint":                          "entry 0: truncated varint",
		"a 5-byte varint overflowing 32 bits":                        "entry 0: posting id 34359738367 outside [0,2147483647)",
		"a 6-byte varint":                                            "entry 0: varint longer than 5 bytes",
		"a singleton ref = maxID":                                    "entry 0: posting id 40 outside [0,40)",
		"a singleton ref of 2³² − 1":                                 "entry 0: posting id 4294967295 outside [0,2147483647)",
		"a singleton ref against a negative maxID":                   "entry 0: posting id 0 outside [0,-28)",
		"a count one over its list":                                  "entry 0: truncated varint",
		"a count one under its list":                                 "lists end at byte 2 of the 3-byte posting arena",
		"equal adjacent keys":                                        "not in strict hash order at entry 1",
		"keys differing only in byte 7, against hash order":          "not in strict hash order at entry 1",
		"keys differing only in byte 0, against hash order":          "not in strict hash order at entry 1",
		"a key bit at the partition width":                           "key 0 has bits set beyond dimension 61",
		"a key bit at the width behind a bad list":                   "entry 1: truncated varint",
		"one-word keys judged as two-word projections":               "key 0 is 8 bytes, a 70-bit projection packs to 16",
		"two ids summing to maxID":                                   "entry 0: posting id 20300 outside [0,20300)",
		"a five-byte continuation run inside an 8-byte window":       "entry 0: varint longer than 5 bytes",
		"a five-byte continuation run across a long list's words":    "entry 0: varint longer than 5 bytes",
		"a varint split across a long list's words, last id = maxID": "entry 0: posting id 20007 outside [0,20007)",
		"a list ref past the previous list's end":                    "entry 1: list starts at byte 3, the lists before it end at 2",
		"a list ref before the previous list's end":                  "entry 1: list starts at byte 1, the lists before it end at 2",
		"a first list not at the arena's start":                      "entry 1: list starts at byte 1, the lists before it end at 0",
		"a last list that stops short of the arena's end":            "lists end at byte 2 of the 3-byte posting arena",
		"singletons over an arena that is not empty":                 "lists end at byte 0 of the 1-byte posting arena",
		"an entry with count 0":                                      "entry 1 has no postings",
		"an entry with count 0 over a list":                          "entry 1 has no postings",
		"a count-1 entry in the middle of the chain":                 "entry 2: list starts at byte 4, the lists before it end at 2",
		"an entry with count 0 behind a bad list":                    "entry 0: truncated varint",
		"a bad singleton behind a bad list":                          "entry 0: truncated varint",
		"a bad list behind a bad singleton":                          "entry 0: posting id 50 outside [0,10)",
		"a bad singleton behind a key out of order":                  "not in strict hash order at entry 1",
		"a key bit at the partition width, 2-byte keys":              "key 0 has bits set beyond dimension 13",
		"a key bit at the width of a partition of one byte":          "key 0 has bits set beyond dimension 7",
		"2-byte keys differing only in byte 1, against hash order":   "not in strict hash order at entry 1",
		"equal adjacent 2-byte keys before a larger one":             "not in strict hash order at entry 1",
		"2-byte keys judged as a 40-bit projection":                  "key 0 is 2 bytes, a 40-bit projection packs to 5",
		"5-byte keys judged as a 64-bit projection":                  "key 0 is 5 bytes, a 64-bit projection packs to 8",
	}
	for kl := 1; kl < 8; kl++ {
		wantErr[fmt.Sprintf("%d-byte keys, pad nonzero", kl)] = fmt.Sprintf("key arena pad byte %d is 0x1, not 0", 7-kl)
	}
	seeds := fastPathSeeds()
	named := make(map[string]bool, len(seeds))
	for _, s := range seeds {
		named[s.name] = true
	}
	for name := range wantErr {
		if !named[name] {
			t.Errorf("wantErr names %q, which no seed is", name)
		}
	}
	for _, s := range seeds {
		f := readUnvalidated(s.data, s.maxID)
		if strings.HasSuffix(s.name, "pad missing") {
			// The header's key arena length counts the pad: the structural
			// tier rejects a section without one before anything is read.
			if _, err := ReadFrozen(binio.NewReader(bytes.NewReader(s.data)), s.maxID); f != nil || err == nil || !strings.Contains(err.Error(), "and the pad need") {
				t.Errorf("%s: ReadFrozen says %v", s.name, err)
			}
			continue
		}
		if f == nil {
			t.Fatalf("%s: the structural tier rejects the seed", s.name)
		}
		err := f.validateContent(s.width)
		if want, bad := wantErr[s.name]; bad != (err != nil) || (bad && !strings.Contains(err.Error(), want)) {
			t.Errorf("%s: got %v, want %q", s.name, err, want)
		}
		sameVerdict(t, s.data, s.maxID, s.width, s.name)
		sameVerdict(t, s.data, s.maxID, -1, s.name)
	}
}

// TestListJudgesAgreeWithTheByteLoop holds the list pass's word judges
// to the reference's byte loop on random lists — varints of every
// length, continuation runs, stray bytes, up to four words long — at
// counts and id bounds on both sides of the truth: a list a judge clears
// is one the byte loop decodes with that count to its last byte, and one
// the byte loop so decodes, the judge clears. A list of up to 8 bytes is
// judged with random bytes after it in its word.
func TestListJudgesAgreeWithTheByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 100000; i++ {
		var list []byte
		for len(list) == 0 || (len(list) < 30 && rng.Intn(4) > 0) {
			switch rng.Intn(5) {
			case 0:
				list = append(list, byte(rng.Intn(256)))
			case 1:
				list = append(list, 0x80, 0x80, 0x80, 0x80)
			default:
				list = binary.AppendUvarint(list, uint64(rng.Int63n(1<<uint(1+rng.Intn(35)))))
			}
		}
		var last int64
		ids := 0
		for b := list; len(b) > 0; ids++ {
			v, k := binary.Uvarint(b)
			if k <= 0 {
				break
			}
			last, b = last+int64(v), b[k:]
		}
		word := binary.LittleEndian.Uint64(append(bytes.Clone(list), byte(rng.Intn(256)), 0xff, 0x80, 0, 0x7f, 0x80, 0x80, 0x80))
		for _, maxID := range []int64{last, last + 1, rng.Int63n(1 << 31), math.MaxInt32, -1} {
			if maxID > math.MaxInt32 {
				continue
			}
			for _, count := range []int{ids - 1, ids, ids + 1} {
				if count < 0 {
					continue
				}
				idLimit := uint64(max(maxID, 0))
				var cleared bool
				if n := uint(len(list)); n > 8 {
					cleared = varintsOK(list, uint32(count), idLimit)
				} else {
					cleared = varintWordOK(word, n, uint32(count), idLimit)
				}
				end, err := refValidateList(list, count, int32(maxID))
				if accepted := err == nil && end == len(list); cleared != accepted {
					t.Fatalf("list % x, count %d, maxID %d: judge clears it %v, byte loop ends at byte %d, %v", list, count, maxID, cleared, end, err)
				}
			}
		}
	}
}

// TestValidateRejectsOffsetsAndTotals: the checks on a built index's refs
// and counts — each list where the one before it ends, the last ending
// the arena, every entry with postings and every one-id entry's ref an
// id, the counts summing to the header's total — each still reject.
func TestValidateRejectsOffsetsAndTotals(t *testing.T) {
	// Ids i and i + 20 share a key below 10 and 20–29: ten lists and ten
	// singletons.
	rows := make([]uint64, 30)
	for i := range rows {
		rows[i] = uint64(i%20) * 25
	}
	f := FreezeRows(len(rows), 1, 9, rows)
	counts := entryCounts(f)
	lists := slices.IndexFunc(counts, func(c uint32) bool { return c > 1 })
	single := slices.IndexFunc(counts, func(c uint32) bool { return c == 1 })
	second := lists + 1 + slices.IndexFunc(counts[lists+1:], func(c uint32) bool { return c > 1 })
	if lists < 0 || single < 0 || second <= lists {
		t.Fatalf("counts %v: the test needs two lists and a singleton", counts)
	}
	raw := frozenBytes(f)
	for _, c := range []struct {
		name   string
		break_ func(f *Frozen)
		want   string
	}{
		{"the first list's ref", func(f *Frozen) { setRef(f, lists, 1) }, fmt.Sprintf("entry %d: list starts at byte 1, the lists before it end at 0", lists)},
		{"a list ref off the chain", func(f *Frozen) { setRef(f, second, f.ref(second)+1) }, fmt.Sprintf("entry %d: list starts at byte", second)},
		{"the last list short of the arena's end", func(f *Frozen) { f.postArena = append(bytes.Clone(f.postArena), 0) }, "lists end at byte"},
		{"a singleton's ref past the ids", func(f *Frozen) { setRef(f, single, 30) }, fmt.Sprintf("entry %d: posting id 30 outside [0,30)", single)},
		{"a count of 0", func(f *Frozen) { setCount(f, single, 0); f.postings-- }, fmt.Sprintf("entry %d has no postings", single)},
		{"counts against the total", func(f *Frozen) { f.postings++ }, "counts sum to"},
	} {
		f := readUnvalidated(bytes.Clone(raw), 30)
		// The section was decoded in place, over bytes this test owns.
		c.break_(f)
		err := f.validateContent(9)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want %q", c.name, err, c.want)
		}
		if ref := refValidate(f, 9); fmt.Sprint(ref) != fmt.Sprint(err) {
			t.Errorf("%s: content tier %v, reference %v", c.name, err, ref)
		}
	}
}

// TestValidateMatchesReferenceUnderMutation is the differential: every
// single-byte mutation of small sections — keys of whole words narrow and
// full width, keys of 1, 2, 3 and 5 bytes with their pads, two-word keys,
// deletion variants — and 10⁴ random ones get the reference's verdict,
// down to the first failing entry.
func TestValidateMatchesReferenceUnderMutation(t *testing.T) {
	type section struct {
		name  string
		data  []byte
		maxID int32
		width int
	}
	var sections []section
	for _, c := range []struct {
		n, w     int
		variants bool
	}{{40, 8, false}, {25, 64, false}, {20, 70, false}, {12, 9, true}} {
		f, width, _, _ := randomIndex(t, int64(c.w), c.n, c.w, c.variants)
		sections = append(sections, section{fmt.Sprintf("n=%d w=%d variants=%v", c.n, c.w, c.variants), frozenBytes(f), int32(c.n), width})
	}
	rng := rand.New(rand.NewSource(25))
	for _, w := range []int{5, 13, 20, 36} {
		const n = 20
		sections = append(sections, section{fmt.Sprintf("n=%d w=%d narrow", n, w), frozenBytes(FreezeRows(n, 1, w, randomRows(rng, n, w))), n, w})
	}
	for _, s := range fastPathSeeds() {
		sections = append(sections, section{s.name, s.data, s.maxID, s.width})
	}
	check := func(s section, bad []byte, what string) {
		for _, width := range []int{-1, s.width, s.width - 1} {
			sameVerdict(t, bad, s.maxID, width, s.name+": "+what)
		}
	}
	for _, s := range sections {
		for off := range s.data {
			for _, x := range []byte{0x01, 0x80, 0xff} {
				bad := bytes.Clone(s.data)
				bad[off] ^= x
				check(s, bad, fmt.Sprintf("byte %d ^ %#x", off, x))
			}
		}
	}
	rng = rand.New(rand.NewSource(24))
	for i := 0; i < 10000; i++ {
		s := sections[rng.Intn(len(sections))]
		bad := bytes.Clone(s.data)
		what := ""
		for k := 1 + rng.Intn(2); k > 0; k-- {
			off, b := rng.Intn(len(bad)), byte(rng.Intn(256))
			bad[off] = b
			what += fmt.Sprintf(" byte %d = %#x", off, b)
		}
		check(s, bad, what)
	}
}

// rewidth returns f with its refs stored refLen bytes wide and its counts
// countLen, whatever the numbers need: a number too wide for its bytes
// loses its high ones.
func rewidth(f *Frozen, refLen, countLen int) *Frozen {
	g := &Frozen{keyArena: f.keyArena, keyLen: f.keyLen, postArena: f.postArena, postings: f.postings, maxID: f.maxID, refLen: refLen}
	n := f.NumKeys()
	g.refs = make([]byte, refLen*n+refPad(refLen, n))
	for e := range n {
		copy(g.refs[refLen*e:refLen*(e+1)], binary.LittleEndian.AppendUint32(nil, f.ref(e)))
	}
	counts := entryCounts(f)
	if countLen == 4 {
		g.counts32 = counts
	} else {
		g.counts8 = make([]uint8, n)
		for e, c := range counts {
			g.counts8[e] = uint8(c)
		}
	}
	return g
}

// entryWidthSeeds are sections whose per-entry arrays are not the widths
// the numbers give: each with the id bound it is read against and what
// reading it must say. The structural tier refuses a width out of range
// from the header alone; the content tier the rest.
func entryWidthSeeds() []struct {
	name, want string
	data       []byte
	maxID      int32
} {
	rows := make([]uint64, 30) // ids i and i + 15 share key i: fifteen lists of two
	for i := range rows {
		rows[i] = uint64(i % 15)
	}
	f := FreezeRows(len(rows), 1, 8, rows) // refs of one byte, counts of one
	f.maxID = 30
	header := func(field int, v uint64) []byte { // the section with a header field overwritten
		b := frozenBytes(f)
		binary.LittleEndian.PutUint64(b[8*field:], v)
		return b
	}
	padSet := frozenBytes(f)
	padSet[len(padSet)-f.NumKeys()-1] = 1 // the refs' last pad byte, right before the counts
	empty := frozenBytes(FreezeRows(0, 1, 8, nil))
	binary.LittleEndian.PutUint64(empty[8*4:], 4)
	return []struct {
		name, want string
		data       []byte
		maxID      int32
	}{
		{"refs one byte wider than the largest needs", "refs are 2 bytes wide, and the largest, 28, needs 1", frozenBytes(rewidth(f, 2, 1)), 30},
		{"refs of four bytes that fit one", "refs are 4 bytes wide, and the largest, 28, needs 1", frozenBytes(rewidth(f, 4, 1)), 30},
		{"4-byte counts that fit a byte", "counts are 4 bytes wide, and the largest, 2, fits one", frozenBytes(rewidth(f, 1, 4)), 30},
		{"a nonzero ref pad byte", "ref pad byte 2 is 0x1, not 0", padSet, 30},
		{"a ref length of 0", "implausible ref length 0", header(3, 0), 30},
		{"a ref length of 5", "implausible ref length 5", header(3, 5), 30},
		{"a count length of 2", "implausible count length 2", header(4, 2), 30},
		{"a count length of 0", "implausible count length 0", header(4, 0), 30},
		{"4-byte counts in an index of no keys", "an index of no keys has 1-byte refs and counts, not 1- and 4-byte ones", empty, 1},
	}
}

// TestHostileEntryWidths: a section whose refs or counts are wider than
// their numbers need, whose ref pad is not zero, or whose header gives a
// width out of range is refused — read from a stream and in place, each
// with its own message, the content tier's verdict the reference's.
func TestHostileEntryWidths(t *testing.T) {
	for _, s := range entryWidthSeeds() {
		for how, src := range map[string]func() *binio.Reader{
			"stream":   func() *binio.Reader { return binio.NewReader(bytes.NewReader(s.data)) },
			"in place": func() *binio.Reader { return binio.NewReader(binio.NewSource(s.data)) },
		} {
			if _, err := ReadFrozen(src(), s.maxID); err == nil || !strings.HasSuffix(err.Error(), s.want) {
				t.Errorf("%s, %s: ReadFrozen says %v, want %q", s.name, how, err, s.want)
			}
		}
		sameVerdict(t, s.data, s.maxID, 8, s.name)
	}
}

// bitmapSeeds are bitmap sections that are not the bitmap of their
// entries' keys at their width, each with the id bound it is read
// against, the width it is judged at and what reading it must say (at
// open for a header the structural tier refuses): a key more than the
// entries, a key fewer, a bitmap as long as another width's, a key moved
// into the pad past a 3-bit bitmap's byte, a length no bitmap has, a
// bitmap past what its keys' bytes can spell, and a layout of neither
// kind.
func bitmapSeeds() []struct {
	name, want string
	data       []byte
	maxID      int32
	width      int
} {
	section := func(width, keys int, edit func(b []byte)) []byte {
		rows := make([]uint64, 30) // ids i, i + keys, … share key i
		for i := range rows {
			rows[i] = uint64(i % keys)
		}
		f := FreezeRows(len(rows), 1, width, rows)
		if !f.bitmap {
			panic("invindex: a seed section that is not a bitmap")
		}
		b := frozenBytes(f)
		edit(b)
		return b
	}
	const bm = 8 * 8 // the eight header fields, then the bitmap
	header := func(field int, v uint64) func(b []byte) {
		return func(b []byte) { binary.LittleEndian.PutUint64(b[8*field:], v) }
	}
	keep := func([]byte) {}
	return []struct {
		name, want string
		data       []byte
		maxID      int32
		width      int
	}{
		{"a key more than the entries", "the bitmap holds 16 keys, the section 15 entries", section(6, 15, func(b []byte) { b[bm+7] |= 0x80 }), 30, 6},
		{"a key fewer than the entries", "the bitmap holds 14 keys, the section 15 entries", section(6, 15, func(b []byte) { b[bm] &^= 1 }), 30, 6},
		{"a 6-bit bitmap judged at 7 bits", "a bitmap of 8 bytes, a 7-bit partition's takes 16", section(6, 15, keep), 30, 7},
		{"a key moved into the pad", "bitmap pad byte 0 is 0x1, not 0", section(3, 5, func(b []byte) { b[bm] &^= 1 << 4; b[bm+1] = 1 }), 30, 3},
		{"a bitmap of 24 bytes", "a bitmap of 24 bytes, not the bitmap of a key space of 1-byte keys", section(6, 15, header(5, 24)), 30, 6},
		{"a bitmap of 512 bits of 1-byte keys", "a bitmap of 64 bytes, not the bitmap of a key space of 1-byte keys", section(6, 15, header(5, 64)), 30, 6},
		{"a layout of 2", "unknown key layout 2", section(6, 15, header(7, 2)), 30, 6},
	}
}

// TestHostileBitmaps: a bitmap section that does not hold its entries'
// keys at its width is refused — read from a stream and in place, each
// with its own message, the content tier's verdict the reference's — and
// its valid form is accepted at its width.
func TestHostileBitmaps(t *testing.T) {
	for _, s := range bitmapSeeds() {
		for how, src := range map[string]func() *binio.Reader{
			"stream":   func() *binio.Reader { return binio.NewReader(bytes.NewReader(s.data)) },
			"in place": func() *binio.Reader { return binio.NewReader(binio.NewSource(s.data)) },
		} {
			f, err := ReadFrozen(src(), s.maxID)
			if err == nil {
				err = f.validateContent(s.width)
			}
			if err == nil || !strings.HasSuffix(err.Error(), s.want) {
				t.Errorf("%s, %s: reading it says %v, want %q", s.name, how, err, s.want)
			}
		}
		sameVerdict(t, s.data, s.maxID, s.width, s.name)
	}
}

// bucketOrderSeeds are sections whose keys are not in hash order, each
// with the id bound it is read against and what reading it must say: a
// section in plain lexicographic order, as the format before buckets
// wrote it; a key moved behind the first key of the next bucket that has
// one; and the first two keys of a bucket swapped.
func bucketOrderSeeds() []struct {
	name, want string
	data       []byte
	maxID      int32
} {
	rows := make([]uint64, 40) // ids i and i + 30 share key 7i mod 210: 30 keys, ten lists of two
	for i := range rows {
		rows[i] = uint64(i%30) * 7
	}
	f := FreezeRows(len(rows), 1, 13, rows)
	post := map[string][]int32{}
	var keys []string // in hash order
	for e := range f.NumKeys() {
		keys = append(keys, string(f.key(e)))
		post[keys[e]] = f.appendList(e, nil)
	}
	dir, _ := dirTable(f)
	section := func(order []string) []byte { return frozenBytes(layOut(f.keyLen, order, post)) }
	// The first bucket of two keys or more, the first holding a key, and
	// the next after that holding one.
	wide, from, to := -1, -1, -1
	for b := range len(dir) - 1 {
		held := dir[b+1] - dir[b]
		if held >= 2 && wide < 0 {
			wide = b
		}
		if held > 0 && from >= 0 && to < 0 {
			to = b
		}
		if held > 0 && from < 0 {
			from = b
		}
	}
	moved := slices.Clone(keys)
	moved = slices.Insert(slices.Delete(moved, int(dir[from]), int(dir[from])+1), int(dir[to]), keys[dir[from]])
	swapped := slices.Clone(keys)
	swapped[dir[wide]], swapped[dir[wide]+1] = swapped[dir[wide]+1], swapped[dir[wide]]
	return []struct {
		name, want string
		data       []byte
		maxID      int32
	}{
		{"keys in plain lexicographic order", "frozen keys are in plain lexicographic order, not in hash order", section(slices.Sorted(slices.Values(keys))), 40},
		{"a key moved into the next bucket", fmt.Sprintf("frozen key %d hashes to bucket %d, behind a key of bucket %d", dir[to], from, to), section(moved), 40},
		{"two keys of a bucket out of order", fmt.Sprintf("frozen keys not in strict hash order at entry %d, in bucket %d", dir[wide]+1, wide), section(swapped), 40},
	}
}

// TestLookupsBeforeValidate: a section read without its content tier
// builds its directory at its first lookup, whatever Validate would say.
// Every lookup form — PostingLenWord, PostingLenBytes, LookupKey,
// LookupWords and CollectWord — answers a read copy of a built index as
// the build does before Validate has run, and, over the sections whose
// keys are out of hash order, stays inside the arenas: a key may go
// unfound, and nothing panics.
func TestLookupsBeforeValidate(t *testing.T) {
	rows := make([]uint64, 300)
	for i := range rows {
		rows[i] = uint64(i%97) * 0x9e37
	}
	built := FreezeRows(len(rows), 1, 30, rows)
	sections := [][]byte{frozenBytes(built)}
	for _, s := range bucketOrderSeeds() {
		sections = append(sections, s.data)
	}
	for i, data := range sections {
		f := readUnvalidated(data, math.MaxInt32)
		if f == nil {
			t.Fatalf("section %d: the structural tier rejects it", i)
		}
		var words []uint64
		for e := range f.NumKeys() {
			var w [8]byte
			copy(w[:], f.key(e))
			words = append(words, binary.LittleEndian.Uint64(w[:]))
		}
		words = append(words, f.keyMask()) // every key bit set: held by no section
		fs := slices.Repeat([]*Frozen{f}, len(words))
		entries, counts := make([]int32, len(words)), make([]uint32, len(words))
		LookupWords(fs, words, entries, counts)
		var buf []byte
		for j, w := range words {
			key := binary.LittleEndian.AppendUint64(nil, w)[:f.KeyLen()]
			e, n := f.LookupKey([]uint64{w}, &buf), f.PostingLenWord(w)
			if int(entries[j]) != e || int(counts[j]) != n || f.PostingLenBytes(key) != n {
				t.Fatalf("section %d, key %#x: LookupWords %d/%d, LookupKey %d, PostingLenWord %d, PostingLenBytes %d",
					i, w, entries[j], counts[j], e, n, f.PostingLenBytes(key))
			}
			set := IDSet{Seen: make([]uint64, 8)}
			if got := f.CollectWord(w, &set); got != n {
				t.Fatalf("section %d, key %#x: CollectWord decodes %d postings, PostingLenWord counts %d", i, w, got, n)
			}
			if i == 0 && n != built.PostingLenWord(w) {
				t.Fatalf("key %#x: %d postings read back before Validate, %d built", w, n, built.PostingLenWord(w))
			}
		}
	}
}

// TestHostileBucketOrder: a section whose keys are not in hash order —
// not grouped by bucket in ascending order, or not sorted inside a
// bucket — is refused: read
// from a stream and in place, each with its own message, the content
// tier's verdict the reference's.
func TestHostileBucketOrder(t *testing.T) {
	for _, s := range bucketOrderSeeds() {
		for how, src := range map[string]func() *binio.Reader{
			"stream":   func() *binio.Reader { return binio.NewReader(bytes.NewReader(s.data)) },
			"in place": func() *binio.Reader { return binio.NewReader(binio.NewSource(s.data)) },
		} {
			if _, err := ReadFrozen(src(), s.maxID); err == nil || !strings.HasSuffix(err.Error(), s.want) {
				t.Errorf("%s, %s: ReadFrozen says %v, want %q", s.name, how, err, s.want)
			}
		}
		sameVerdict(t, s.data, s.maxID, 13, s.name)
	}
}
