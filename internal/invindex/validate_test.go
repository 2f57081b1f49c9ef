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
	"gph/internal/cpu"
)

// The reference: the content tier as an entry-by-entry walk — the pads
// read a byte at a time, then the keys: a bitmap's counted a bit at a
// time, its rank entries against those counts and its bits past the
// width; a hashed section's directory offset by offset, then, in the
// quotient layout, every remainder's bits past its width a bit at a time
// and every key's bucket, read off the directory, and remainder against
// the one before it, or, in the byte layout, every key's hash against the
// bucket the directory puts it in and against the key before it in its
// bucket, then the bits past the width a bit at a time. Then every
// entry's ref, read a byte at a time: an id below maxID, or a list, its
// head and ids decoded a byte at a time from where the one before it
// ended; then the postings against the header's total, and the width of
// the refs. The fast paths keep every check; this keeps them honest
// about that.

func refValidate(f *Frozen) error {
	numKeys := f.NumKeys()
	for i := f.remLen * numKeys; i < len(f.keyArena) && !f.bitmap; i++ {
		if b := f.keyArena[i]; b != 0 {
			return fmt.Errorf("invindex: key arena pad byte %d is %#x, not 0", i-f.remLen*numKeys, b)
		}
	}
	for i, b := range f.refs[f.refLen*numKeys:] {
		if b != 0 {
			return fmt.Errorf("invindex: ref pad byte %d is %#x, not 0", i, b)
		}
	}
	if err := refKeys(f); err != nil {
		return err
	}
	refs := make([]uint32, numKeys)
	for e := range refs {
		for i := f.refLen - 1; i >= 0; i-- {
			refs[e] = refs[e]<<8 | uint32(f.refs[e*f.refLen+i])
		}
	}
	pos, top := 0, uint32(0)
	var total int64
	for e, ref := range refs {
		top = max(top, ref)
		if int64(ref) < int64(f.maxID) {
			total++
			continue
		}
		if off := int64(ref) - int64(f.maxID); off != int64(pos) {
			return fmt.Errorf("invindex: frozen entry %d: list starts at byte %d, the lists before it end at %d", e, off, pos)
		}
		head, n, err := refVarint(f.postArena[pos:])
		if err != nil {
			return fmt.Errorf("invindex: frozen entry %d: list head: %w", e, err)
		}
		pos += n
		n, err = refValidateList(f.postArena[pos:], int(min(head+2, math.MaxInt32)), f.maxID)
		if err != nil {
			return fmt.Errorf("invindex: frozen entry %d: %w", e, err)
		}
		pos += n
		total += int64(head + 2)
	}
	if pos != len(f.postArena) {
		return fmt.Errorf("invindex: frozen lists end at byte %d of the %d-byte posting arena", pos, len(f.postArena))
	}
	if total != f.postings {
		return fmt.Errorf("invindex: frozen entries hold %d postings, header says %d", total, f.postings)
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

// refBits returns b's bits from bit lo up to bit hi, bit i of b being
// bit i%8 of byte i/8, as a little-endian word.
func refBits(b []byte, lo, hi int) uint64 {
	var v uint64
	for i := hi - 1; i >= lo; i-- {
		v = v<<1 | uint64(b[i/8]>>(i%8)&1)
	}
	return v
}

// refKeys is the reference's judge of the keys.
func refKeys(f *Frozen) error {
	if f.bitmap {
		return refBitmap(f)
	}
	n := f.NumKeys()
	var dir []int
	for _, o := range f.dir16 {
		dir = append(dir, int(o))
	}
	for _, o := range f.dir32 {
		dir = append(dir, int(o))
	}
	if dir[0] != 0 {
		return fmt.Errorf("invindex: bucket directory offset 0 is %d, not 0", dir[0])
	}
	for b := 1; b < len(dir); b++ {
		if dir[b] < dir[b-1] {
			return fmt.Errorf("invindex: bucket directory offset %d is %d, below offset %d's %d", b, dir[b], b-1, dir[b-1])
		}
	}
	if dir[len(dir)-1] != n {
		return fmt.Errorf("invindex: bucket directory ends at %d, the section holds %d keys", dir[len(dir)-1], n)
	}
	k := 0 // 2^k buckets: the largest power of two below the key count, one for two keys or fewer
	for 2<<k < n {
		k++
	}
	// bucketOf is the bucket the directory puts entry e in.
	bucketOf := func(e int) int {
		b := 0
		for dir[b+1] <= e {
			b++
		}
		return b
	}
	if f.width >= 1 && f.width <= 64 {
		r, rl := f.width-k, f.remLen
		for e := range n {
			for bit := r; bit < 8*rl; bit++ {
				if f.keyArena[rl*e+bit/8]>>(bit%8)&1 != 0 {
					return fmt.Errorf("invindex: key %d's remainder has bits set at or past bit %d", e, r)
				}
			}
		}
		for e := 1; e < n; e++ {
			b, prev := bucketOf(e), bucketOf(e-1)
			rem, prevRem := refBits(f.keyArena[rl*e:], 0, r), refBits(f.keyArena[rl*(e-1):], 0, r)
			if b < prev || b == prev && rem <= prevRem {
				return fmt.Errorf("invindex: frozen keys not in strict hash order at entry %d, in bucket %d", e, b)
			}
		}
		return nil
	}
	kl := f.keyLen
	key := func(e int) []byte { return f.keyArena[kl*e : kl*(e+1)] }
	for e := range n {
		b := bucketOf(e)
		h := hashKey(key(e))
		got := 0
		if k > 0 {
			got = int(h >> (64 - k))
		}
		if got != b {
			return fmt.Errorf("invindex: frozen key %d hashes to bucket %d, the directory puts it in bucket %d", e, got, b)
		}
		if e > dir[b] {
			prev := hashKey(key(e - 1))
			if h < prev || h == prev && bytes.Compare(key(e-1), key(e)) >= 0 {
				return fmt.Errorf("invindex: frozen keys not in strict hash order at entry %d, in bucket %d", e, b)
			}
		}
	}
	for e := range n {
		for bit := f.width; bit < 8*kl; bit++ {
			if key(e)[bit/8]>>(bit%8)&1 != 0 {
				return fmt.Errorf("invindex: key %d has bits set beyond dimension %d", e, f.width)
			}
		}
	}
	return nil
}

// refBitmap is the reference's judge of a bitmap: a key an entry, each
// rank entry the keys below its 512-bit block, and none set at or past
// 2^width — in a whole byte past the bitmap's, a pad byte set.
func refBitmap(f *Frozen) error {
	bm := f.keyArena
	keys := 0
	for k := range 8 * len(bm) {
		keys += int(bm[k/8] >> (k % 8) & 1)
	}
	if keys != f.NumKeys() {
		return fmt.Errorf("invindex: the bitmap holds %d keys, the section %d entries", keys, f.NumKeys())
	}
	for b, r := range f.dir32 {
		below := 0
		for k := range min(512*b, 8*len(bm)) {
			below += int(bm[k/8] >> (k % 8) & 1)
		}
		if int(r) != below {
			return fmt.Errorf("invindex: rank entry %d is %d, the bitmap holds %d keys below bit %d", b, r, below, 512*b)
		}
	}
	for k := 1 << f.width; k < 8*len(bm); k++ {
		if bm[k/8]>>(k%8)&1 == 0 {
			continue
		}
		if held := (1<<f.width + 7) / 8; k/8 >= held {
			return fmt.Errorf("invindex: bitmap pad byte %d is %#x, not 0", k/8-held, bm[k/8])
		}
		return fmt.Errorf("invindex: bitmap key %d has bits set beyond dimension %d", k, f.width)
	}
	return nil
}

// entryCounts returns f's posting counts.
func entryCounts(f *Frozen) []uint32 {
	counts := make([]uint32, f.NumKeys())
	for e := range counts {
		counts[e] = uint32(f.count(e))
	}
	return counts
}

// setRef writes v over entry e's ref, in the ref's refLen bytes.
func setRef(f *Frozen, e int, v uint32) {
	b := binary.LittleEndian.AppendUint32(nil, v)
	copy(f.refs[e*f.refLen:(e+1)*f.refLen], b)
}

// refVarint decodes one varint from the front of b a byte at a time, at
// most five bytes; it returns it and the bytes it takes.
func refVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; ; i++ {
		if i == 5 {
			return 0, 0, fmt.Errorf("varint longer than 5 bytes")
		}
		if i >= len(b) {
			return 0, 0, fmt.Errorf("truncated varint")
		}
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
}

// refValidateList decodes count delta-varints from the front of b,
// checking framing and that every id lies in [0, maxID); it returns the
// bytes they take.
func refValidateList(b []byte, count int, maxID int32) (int, error) {
	var prev int64
	i := 0
	for range count {
		v, n, err := refVarint(b[i:])
		if err != nil {
			return 0, err
		}
		i += n
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

// sameVerdict holds the content tier to the reference on one section,
// under each arm this host runs (arms): the same error — check, entry
// and all — or none from either.
func sameVerdict(t testing.TB, data []byte, maxID int32, what string) {
	t.Helper()
	f := readUnvalidated(data, maxID)
	if f == nil {
		return
	}
	want := refValidate(f)
	for _, arm := range arms() {
		restore := cpu.Force(cpu.Setting{Kernel: arm})
		got := f.validateContent()
		restore()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s, %s arm:\n  content tier: %v\n  reference:    %v", what, arm, got, want)
		}
	}
}

// arms returns the content tier's arms this host runs: the kernels where
// it has them, their Go reference and the portable passes.
func arms() []cpu.Kernel {
	if kernelMissing != "" {
		return []cpu.Kernel{cpu.KernelGo, cpu.KernelPortable}
	}
	return []cpu.Kernel{cpu.KernelAssembly, cpu.KernelGo, cpu.KernelPortable}
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
// bytes of a list — its head and its ids — which go to the arena and give
// the entry the ref maxID + where they start, or, with no bytes, the ref
// itself — the id of a one-id entry.
type post struct {
	ref  uint32
	list []byte
}

// handSection makes a section of width-bit keys for maxID ids by hand —
// keys in the order given, each with its postings, the posting total
// what the heads and ids say, the directory the order gives, then pad —
// so a test can hold exactly the corruption it means to, a ref or the
// arena changed before the section is written.
func handSection(width int, maxID int32, keys []string, posts []post, pad []byte) *Frozen {
	n := len(keys)
	f := &Frozen{keyLen: KeyLen(width), width: width, remLen: KeyLen(width), dirShift: dirShift(n), numKeys: n, maxID: maxID}
	if quotientWidth(width) {
		f.remLen, f.dirShift = remBytes(width, n), uint(width-1-bucketBits(n))
	}
	ends := make([]uint32, 1<<bucketBits(n)+1)
	refs := make([]uint32, n)
	for e, k := range keys {
		h := orderHash(width, k)
		ends[bucket(h, f.dirShift)+1] = uint32(e + 1)
		if quotientWidth(width) {
			k = string(binary.LittleEndian.AppendUint64(nil, h&f.remMask())[:f.remLen])
		}
		f.keyArena = append(f.keyArena, k...)
		refs[e] = posts[e].ref
		f.postings++
		if l := posts[e].list; l != nil {
			refs[e] = uint32(maxID) + uint32(len(f.postArena))
			f.postArena = append(f.postArena, l...)
			if head, _ := binary.Uvarint(l); head < 1<<20 {
				f.postings += int64(head) + 1
			}
		}
	}
	f.keyArena = append(f.keyArena, pad...)
	f.packRefs(refs)
	f.setDir(ends)
	return f
}

// handFrozen serializes handSection's section with the zero pad
// FreezeRows writes after stored keys shorter than a word.
func handFrozen(width int, maxID int32, keys []string, posts []post) []byte {
	f := handSection(width, maxID, keys, posts, nil)
	f.keyArena = append(f.keyArena, make([]byte, keyPad(f.remLen, len(keys)))...)
	return frozenBytes(f)
}

// handFrozenPad is handFrozen with the bytes after the keys given.
func handFrozenPad(width int, maxID int32, keys []string, posts []post, pad []byte) []byte {
	return frozenBytes(handSection(width, maxID, keys, posts, pad))
}

// listOf is the post of a list whose head claims count ids, followed by
// the varints of deltas.
func listOf(count int, deltas ...uint64) post {
	b := binary.AppendUvarint(nil, uint64(count-2))
	for _, d := range deltas {
		b = binary.AppendUvarint(b, d)
	}
	return post{list: b}
}

// fastPathSeeds are the sections the fast paths could get wrong and an
// entry-by-entry walk would not, each with the id bound it is judged
// at; FuzzReadFrozen starts from them.
func fastPathSeeds() []struct {
	name  string
	data  []byte
	maxID int32
} {
	id := func(v uint32) post { return post{ref: v} }
	ids := func(deltas ...uint64) post { return listOf(len(deltas), deltas...) }
	raw := func(b ...byte) post { return post{list: b} } // a head and ids, byte for byte
	// edit writes a hand-made section after change has had its way with it.
	edit := func(width int, maxID int32, keys []string, posts []post, change func(f *Frozen)) []byte {
		f := handSection(width, maxID, keys, posts, nil)
		f.keyArena = append(f.keyArena, make([]byte, keyPad(f.remLen, len(keys)))...)
		change(f)
		return frozenBytes(f)
	}
	// remBit sets bit of entry e's stored remainder.
	remBit := func(e, bit int) func(f *Frozen) {
		return func(f *Frozen) { f.keyArena[f.remLen*e+bit/8] |= 1 << (bit % 8) }
	}
	// Two 64-bit keys in hash order, and three, which take two buckets.
	pair := hashOrder(64, []string{wordKey(1), wordKey(2)})
	k1, k2 := pair[0], pair[1]
	three := hashOrder(64, []string{wordKey(1), wordKey(2), wordKey(3)})
	// inOrder is keys, two width-bit keys, in hash order, or against it.
	inOrder := func(width int, against bool, keys ...string) []string {
		keys = hashOrder(width, keys)
		if against {
			slices.Reverse(keys)
		}
		return keys
	}
	seeds := []struct {
		name  string
		data  []byte
		maxID int32
	}{
		{"a multi-byte varint ending a list", handFrozen(64, 301, []string{k1}, []post{ids(0, 300)}), 301},
		{"a list cut inside its last varint", handFrozen(64, 301, []string{k1}, []post{raw(0, 0x01, 0xac)}), 301},
		// Five bytes carry 35 bits: past 32 the value fails the id range, and
		// a sixth byte is what the framing check is for.
		{"a 5-byte varint overflowing 32 bits", handFrozen(64, math.MaxInt32, []string{k1}, []post{raw(0, 0, 0xff, 0xff, 0xff, 0xff, 0x7f)}), math.MaxInt32},
		{"a 6-byte varint", handFrozen(64, math.MaxInt32, []string{k1}, []post{raw(0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00)}), math.MaxInt32},
		{"a 5-byte varint that fits", handFrozen(64, math.MaxInt32, []string{k1}, []post{raw(0, 0, 0xff, 0xff, 0xff, 0xff, 0x06)}), math.MaxInt32},
		// A ref from maxID on is a list's, whatever the arena holds.
		{"a one-id ref = maxID", handFrozen(64, 40, []string{k1}, []post{id(40)}), 40},
		{"a one-id ref = maxID − 1", handFrozen(64, 40, []string{k1}, []post{id(39)}), 40},
		{"a one-id ref of 2³² − 1", handFrozen(64, math.MaxInt32, []string{k1}, []post{id(math.MaxUint32)}), math.MaxInt32},
		{"a head claiming one id more than its bytes hold", handFrozen(64, 40, []string{k1}, []post{listOf(3, 3, 1)}), 40},
		{"a head claiming one id more than its bytes hold, before a list", handFrozen(64, 40, []string{k1, k2}, []post{listOf(3, 3, 1), ids(1, 1)}), 40},
		{"a head claiming one id fewer than its bytes hold", handFrozen(64, 40, []string{k1}, []post{listOf(2, 3, 1, 1)}), 40},
		{"a head of five continuation bytes", handFrozen(64, 40, []string{k1}, []post{raw(0x80, 0x80, 0x80, 0x80, 0x80, 0x00, 1, 1)}), 40},
		{"a head of 2³² − 1, a count past 32 bits", handFrozen(64, 40, []string{k1}, []post{raw(0xff, 0xff, 0xff, 0xff, 0x0f, 1)}), 40},
		{"a head of several bytes", handFrozen(64, 400, []string{k1}, []post{listOf(130, slices.Repeat([]uint64{1}, 130)...)}), 400},
		// Two keys take one bucket: equal keys are equal remainders in it.
		{"equal adjacent keys", handFrozen(64, 2, []string{wordKey(5), wordKey(5)}, []post{id(0), id(1)}), 2},
		// Byte 7 is the big end of the little-endian word a key is, byte 0
		// the little end.
		{"keys differing only in byte 7, in hash order", handFrozen(64, 2, inOrder(64, false, wordKey(1), wordKey(1|1<<56)), []post{id(0), id(1)}), 2},
		{"keys differing only in byte 7, against hash order", handFrozen(64, 2, inOrder(64, true, wordKey(1), wordKey(1|1<<56)), []post{id(0), id(1)}), 2},
		{"keys differing only in byte 0, in hash order", handFrozen(64, 2, inOrder(64, false, wordKey(1<<56), wordKey(1|1<<56)), []post{id(0), id(1)}), 2},
		{"keys differing only in byte 0, against hash order", handFrozen(64, 2, inOrder(64, true, wordKey(1<<56), wordKey(1|1<<56)), []post{id(0), id(1)}), 2},
		// One key takes one bucket: its remainder is all its 61 bits.
		{"a remainder bit at the partition width", edit(61, 1, []string{wordKey(1 << 60)}, []post{id(0)}, remBit(0, 61)), 1},
		{"a remainder bit at the top of the word", edit(61, 1, []string{wordKey(1 << 60)}, []post{id(0)}, remBit(0, 63)), 1},
		{"a key bit just inside the partition width", handFrozen(61, 1, []string{wordKey(1 << 60)}, []post{id(0)}), 1},
		{"a remainder bit at the width before a bad list", edit(61, 2, inOrder(61, false, wordKey(1<<60), wordKey(1<<60|1<<8)),
			[]post{id(0), raw(0, 0, 0x80)}, remBit(1, 61)), 2},

		// The list pass judges a list's ids of up to 8 bytes from the word at
		// their start, longer ones a word at a time, and ids whose word would
		// cross the arena's end a byte at a time; a list ends where the next
		// list's ref says.
		{"a list in the arena's last 8 bytes", handFrozen(64, 400, []string{k1, k2},
			[]post{ids(300, 1), ids(1, 1, 1, 1, 1, 1, 1, 1)}), 400},
		{"a list whose window crosses the arena's end", handFrozen(64, 400, []string{k1, k2},
			[]post{ids(1, 1, 1, 1, 1, 1, 1, 1), ids(300, 1)}), 400},
		{"a several-id list of exactly 8 bytes", handFrozen(64, 611, []string{k1},
			[]post{ids(1, 300, 300, 2, 3, 4)}), 611},
		{"a several-id list of 9 bytes", handFrozen(64, 616, []string{k1},
			[]post{ids(1, 300, 300, 2, 3, 4, 5)}), 616},
		{"two ids summing to maxID − 1", handFrozen(64, 20301, []string{k1, k2},
			[]post{ids(300, 20000), ids(1, 1, 1)}), 20301},
		{"two ids summing to maxID", handFrozen(64, 20300, []string{k1, k2},
			[]post{ids(300, 20000), ids(1, 1, 1)}), 20300},
		{"a five-byte continuation run inside an 8-byte window", handFrozen(64, math.MaxInt32, []string{k1, k2},
			[]post{raw(0, 0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00), id(1)}), math.MaxInt32},
		{"a five-byte continuation run across a long list's words", handFrozen(64, math.MaxInt32, []string{k1},
			[]post{raw(4, 1, 1, 1, 1, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00)}), math.MaxInt32},
		{"a varint split across a long list's words", handFrozen(64, 20008, []string{k1},
			[]post{ids(1, 1, 1, 1, 1, 1, 1, 20000)}), 20008},
		{"a varint split across a long list's words, last id = maxID", handFrozen(64, 20007, []string{k1},
			[]post{ids(1, 1, 1, 1, 1, 1, 1, 20000)}), 20007},

		// The chain: each list starts where the one before it ends, the
		// first at the arena's start, and the last ends the arena.
		{"a list ref past the previous list's end", edit(64, 10, []string{k1, k2},
			[]post{ids(1, 1), ids(1, 1, 1)}, func(f *Frozen) { setRef(f, 1, f.ref(1)+1) }), 10},
		{"a list ref before the previous list's end", edit(64, 10, []string{k1, k2},
			[]post{ids(1, 1), ids(1, 1, 1)}, func(f *Frozen) { setRef(f, 1, f.ref(1)-1) }), 10},
		{"a first list not at the arena's start", edit(64, 10, []string{k1, k2},
			[]post{id(5), ids(1, 1)}, func(f *Frozen) { f.postArena = append([]byte{7}, f.postArena...); setRef(f, 1, 11) }), 10},
		{"a last list that stops short of the arena's end", edit(64, 10, []string{k1, k2},
			[]post{ids(1, 1), id(7)}, func(f *Frozen) { f.postArena = append(f.postArena, 0) }), 10},
		{"one-id refs over an arena that is not empty", edit(64, 10, []string{k1, k2},
			[]post{id(0), id(1)}, func(f *Frozen) { f.postArena = []byte{0} }), 10},
		{"a list ref inside the one-id range", edit(64, 10, []string{k1, k2},
			[]post{ids(1, 1), id(7)}, func(f *Frozen) { setRef(f, 0, 9) }), 10},
		{"a list ref past the arena's end", edit(64, 10, three,
			[]post{id(0), ids(1, 1), ids(1, 1, 1)}, func(f *Frozen) { setRef(f, 2, 60) }), 10},
		{"a list ref at the arena's end", edit(64, 10, []string{k1, k2},
			[]post{ids(1, 1), id(3)}, func(f *Frozen) { setRef(f, 1, 13) }), 10},
		{"a bad list behind a bad list", handFrozen(64, 10, []string{k1, k2},
			[]post{raw(0, 0, 0x80), raw(0, 0x80)}), 10},
		{"a list behind one-id ref maxID − 1", handFrozen(64, 10, []string{k1, k2},
			[]post{id(9), ids(1, 1)}), 10},
		{"a bad list behind a key out of order", handFrozen(64, 10, []string{k2, k1}, []post{id(0), raw(0, 0x80)}), 10},

		// Remainders shorter than a word are loaded a word at a time too, the
		// bytes past each masked off: the next remainder's, or the pad's.
		{"a remainder bit at the partition width, 2-byte keys", edit(13, 1, []string{narrowKey(1<<12, 2)}, []post{id(0)}, remBit(0, 13)), 1},
		{"a key bit just inside the partition width, 2-byte keys", handFrozen(13, 1, []string{narrowKey(1<<12, 2)}, []post{id(0)}), 1},
		{"a remainder bit at the width of a partition of one byte", edit(7, 1, []string{narrowKey(1<<6, 1)}, []post{id(0)}, remBit(0, 7)), 1},
		{"2-byte keys differing only in byte 1, against hash order", handFrozen(16, 2, inOrder(16, true, narrowKey(1|1<<8, 2), narrowKey(1, 2)), []post{id(0), id(1)}), 2},
		// Unmasked, the first load reads 01 00 01 00 ff ff and the second
		// 01 00 ff ff 00 00: two words, where the remainders are equal.
		{"equal adjacent 2-byte keys before a larger one", handFrozen(16, 3, []string{narrowKey(1, 2), narrowKey(1, 2), narrowKey(0xffff, 2)}, []post{id(0), id(1), id(2)}), 3},
		// A key wider than a word keeps its bytes: its bits past the width,
		// its bucket and its order are the byte layout's.
		{"a key bit past a 70-bit width", handFrozen(70, 1, []string{string(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1), 1<<6))},
			[]post{id(0)}), 1},
	}
	// Every remainder length shorter than a word, with its pad as
	// FreezeRows writes it, with a pad byte set, and with no pad at all.
	for rl := 1; rl < 8; rl++ {
		width := 8*rl - 1 // two keys take one bucket: the remainder is the key
		keys := hashOrder(width, []string{narrowKey(1, rl), narrowKey(2, rl)})
		posts := []post{id(0), ids(1, 300)}
		set := make([]byte, 8-rl)
		set[len(set)-1] = 1
		for _, p := range []struct {
			what string
			pad  []byte
		}{{"pad intact", make([]byte, 8-rl)}, {"pad nonzero", set}, {"pad missing", nil}} {
			seeds = append(seeds, struct {
				name  string
				data  []byte
				maxID int32
			}{fmt.Sprintf("%d-byte remainders, %s", rl, p.what), handFrozenPad(width, 302, keys, posts, p.pad), 302})
		}
	}
	return seeds
}

// TestFastPathsRejectWhatTheReferenceRejects: the seeds above, each
// check's verdict spelled out, then the same verdict from both sides.
func TestFastPathsRejectWhatTheReferenceRejects(t *testing.T) {
	wantErr := map[string]string{
		"a list cut inside its last varint":                              "entry 0: truncated varint",
		"a 5-byte varint overflowing 32 bits":                            "entry 0: posting id 34359738367 outside [0,2147483647)",
		"a 6-byte varint":                                                "entry 0: varint longer than 5 bytes",
		"a one-id ref = maxID":                                           "entry 0: list head: truncated varint",
		"a one-id ref of 2³² − 1":                                        "entry 0: list starts at byte 2147483648, the lists before it end at 0",
		"a head claiming one id more than its bytes hold":                "entry 0: truncated varint",
		"a head claiming one id more than its bytes hold, before a list": "entry 1: list starts at byte 3, the lists before it end at 4",
		"a head claiming one id fewer than its bytes hold":               "lists end at byte 3 of the 4-byte posting arena",
		"a head of five continuation bytes":                              "entry 0: list head: varint longer than 5 bytes",
		"a head of 2³² − 1, a count past 32 bits":                        "entry 0: truncated varint",
		"equal adjacent keys":                                            "not in strict hash order at entry 1",
		"keys differing only in byte 7, against hash order":              "not in strict hash order at entry 1",
		"keys differing only in byte 0, against hash order":              "not in strict hash order at entry 1",
		"a remainder bit at the partition width":                         "key 0's remainder has bits set at or past bit 61",
		"a remainder bit at the top of the word":                         "key 0's remainder has bits set at or past bit 61",
		"a remainder bit at the width before a bad list":                 "key 1's remainder has bits set at or past bit 61",
		"two ids summing to maxID":                                       "entry 0: posting id 20300 outside [0,20300)",
		"a five-byte continuation run inside an 8-byte window":           "entry 0: varint longer than 5 bytes",
		"a five-byte continuation run across a long list's words":        "entry 0: varint longer than 5 bytes",
		"a varint split across a long list's words, last id = maxID":     "entry 0: posting id 20007 outside [0,20007)",
		"a list ref past the previous list's end":                        "entry 1: list starts at byte 4, the lists before it end at 3",
		"a list ref before the previous list's end":                      "entry 1: list starts at byte 2, the lists before it end at 3",
		"a first list not at the arena's start":                          "entry 1: list starts at byte 1, the lists before it end at 0",
		"a last list that stops short of the arena's end":                "lists end at byte 3 of the 4-byte posting arena",
		"one-id refs over an arena that is not empty":                    "lists end at byte 0 of the 1-byte posting arena",
		"a list ref inside the one-id range":                             "lists end at byte 0 of the 3-byte posting arena",
		"a list ref past the arena's end":                                "entry 2: list starts at byte 50, the lists before it end at 3",
		"a list ref at the arena's end":                                  "entry 1: list head: truncated varint",
		"a bad list behind a bad list":                                   "entry 1: list starts at byte 3, the lists before it end at 4",
		"a bad list behind a key out of order":                           "not in strict hash order at entry 1",
		"a remainder bit at the partition width, 2-byte keys":            "key 0's remainder has bits set at or past bit 13",
		"a remainder bit at the width of a partition of one byte":        "key 0's remainder has bits set at or past bit 7",
		"2-byte keys differing only in byte 1, against hash order":       "not in strict hash order at entry 1",
		"equal adjacent 2-byte keys before a larger one":                 "not in strict hash order at entry 1",
		"a key bit past a 70-bit width":                                  "key 0 has bits set beyond dimension 70",
	}
	for rl := 1; rl < 8; rl++ {
		wantErr[fmt.Sprintf("%d-byte remainders, pad nonzero", rl)] = fmt.Sprintf("key arena pad byte %d is 0x1, not 0", 7-rl)
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
		err := f.validateContent()
		if want, bad := wantErr[s.name]; bad != (err != nil) || (bad && !strings.Contains(err.Error(), want)) {
			t.Errorf("%s: got %v, want %q", s.name, err, want)
		}
		sameVerdict(t, s.data, s.maxID, s.name)
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
// and lists — each list where the one before it ends, the last ending
// the arena, each head the count of its ids, the postings summing to the
// header's total — each still reject.
func TestValidateRejectsOffsetsAndTotals(t *testing.T) {
	// Ids i and i + 20 share a key below 10 and 20–29: ten lists of two,
	// each a head and two one-byte ids, and ten one-id entries.
	rows := make([]uint64, 30)
	for i := range rows {
		rows[i] = uint64(i%20) * 25
	}
	f := FreezeRows(len(rows), 1, 9, rows)
	counts := entryCounts(f)
	lists := slices.IndexFunc(counts, func(c uint32) bool { return c > 1 })
	single := slices.IndexFunc(counts, func(c uint32) bool { return c == 1 })
	second := lists + 1 + slices.IndexFunc(counts[lists+1:], func(c uint32) bool { return c > 1 })
	if lists < 0 || single < 0 || second <= lists || len(f.postArena) != 30 {
		t.Fatalf("counts %v over %d bytes: the test needs lists of three bytes and a one-id entry", counts, len(f.postArena))
	}
	raw := frozenBytes(f)
	for _, c := range []struct {
		name   string
		break_ func(f *Frozen)
		want   string
	}{
		{"the first list's ref", func(f *Frozen) { setRef(f, lists, 31) }, fmt.Sprintf("entry %d: list starts at byte 1, the lists before it end at 0", lists)},
		{"a list ref off the chain", func(f *Frozen) { setRef(f, second, f.ref(second)+1) }, fmt.Sprintf("entry %d: list starts at byte", second)},
		{"the last list short of the arena's end", func(f *Frozen) { f.postArena = append(bytes.Clone(f.postArena), 0) }, "lists end at byte"},
		{"a one-id ref moved into the list range", func(f *Frozen) { setRef(f, single, 30+30) }, fmt.Sprintf("entry %d: list", single)},
		{"a head one over its list", func(f *Frozen) { f.postArena[0]++ }, fmt.Sprintf("entry %d: list starts at byte 3, the lists before it end at 4", second)},
		{"postings against the total", func(f *Frozen) { f.postings++ }, "entries hold 30 postings, header says 31"},
	} {
		f := readUnvalidated(bytes.Clone(raw), 30)
		// The section was decoded in place, over bytes this test owns.
		c.break_(f)
		err := f.validateContent()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want %q", c.name, err, c.want)
		}
		if ref := refValidate(f); fmt.Sprint(ref) != fmt.Sprint(err) {
			t.Errorf("%s: content tier %v, reference %v", c.name, err, ref)
		}
	}
}

// TestValidateMatchesReferenceUnderMutation is the differential: every
// single-byte mutation of small sections — keys of whole words narrow and
// full width, remainders of 1, 2, 3 and 5 bytes with their pads, bitmaps
// with their rank arrays, two-word keys, deletion variants, directories
// of one and of several buckets — 3 000 of sections longer than a kernel
// block, and 10⁴ random ones get the reference's verdict under every arm,
// down to the first failing entry.
func TestValidateMatchesReferenceUnderMutation(t *testing.T) {
	type section struct {
		name  string
		data  []byte
		maxID int32
	}
	var sections []section
	for _, c := range []struct {
		n, w     int
		variants bool
	}{{40, 8, false}, {25, 64, false}, {20, 70, false}, {12, 9, true}} {
		f, _, _, _ := randomIndex(t, int64(c.w), c.n, c.w, c.variants)
		sections = append(sections, section{fmt.Sprintf("n=%d w=%d variants=%v", c.n, c.w, c.variants), frozenBytes(f), int32(c.n)})
	}
	rng := rand.New(rand.NewSource(25))
	for _, w := range []int{5, 13, 20, 36} {
		const n = 20
		sections = append(sections, section{fmt.Sprintf("n=%d w=%d narrow", n, w), frozenBytes(FreezeRows(n, 1, w, randomRows(rng, n, w))), n})
	}
	for _, s := range fastPathSeeds() {
		sections = append(sections, section{s.name, s.data, s.maxID})
	}
	// Past a block of either pass (keyBlock keys, scanBlock refs): the
	// kernels judge these, and their tails and block seams.
	for _, w := range []int{14, 22, 30, 58} {
		const n = keyBlock + 90
		sections = append(sections, section{fmt.Sprintf("n=%d w=%d long", n, w), frozenBytes(FreezeRows(n, 1, w, randomRows(rng, n, w))), n})
	}
	check := func(s section, bad []byte, what string) {
		sameVerdict(t, bad, s.maxID, s.name+": "+what)
	}
	for _, s := range sections {
		if strings.HasSuffix(s.name, " long") {
			for range 750 {
				off, x := rng.Intn(len(s.data)), []byte{0x01, 0x80, 0xff}[rng.Intn(3)]
				bad := bytes.Clone(s.data)
				bad[off] ^= x
				check(s, bad, fmt.Sprintf("byte %d ^ %#x", off, x))
			}
			continue
		}
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

// rewidth returns f with its refs stored refLen bytes wide, whatever the
// numbers need: a number too wide for its bytes loses its high ones.
func rewidth(f *Frozen, refLen int) *Frozen {
	g := &Frozen{keyArena: f.keyArena, keyLen: f.keyLen, remLen: f.remLen, width: f.width, postArena: f.postArena, postings: f.postings,
		numKeys: f.numKeys, maxID: f.maxID, refLen: refLen, dir16: f.dir16, dir32: f.dir32, dirShift: f.dirShift, bitmap: f.bitmap}
	n := f.NumKeys()
	g.refs = make([]byte, refLen*n+refPad(refLen, n))
	for e := range n {
		copy(g.refs[refLen*e:refLen*(e+1)], binary.LittleEndian.AppendUint32(nil, f.ref(e)))
	}
	return g
}

// entryWidthSeeds are sections whose refs are not the width the numbers
// give, or whose header does not fit the section, each with the id bound
// it is read against and what reading it must say. The structural tier
// refuses a width out of range, or a negative id bound, from the header
// alone; the content tier the rest.
func entryWidthSeeds() []struct {
	name, want string
	data       []byte
	maxID      int32
} {
	rows := make([]uint64, 30) // ids i and i + 15 share key i: fifteen lists of two, three bytes each
	for i := range rows {
		rows[i] = uint64(i % 15)
	}
	f := FreezeRows(len(rows), 1, 20, rows) // refs of one byte, the last list's 30 + 42
	singles := make([]uint64, 30)           // ids i and i + 1 apart: thirty one-id entries, the largest 29
	for i := range singles {
		singles[i] = uint64(i)
	}
	g := FreezeRows(len(singles), 1, 20, singles)
	header := func(field int, v uint64) []byte { // the section with a header field overwritten
		b := frozenBytes(f)
		binary.LittleEndian.PutUint64(b[8*field:], v)
		return b
	}
	padSet := frozenBytes(f)
	padSet[8*8+len(f.keyArena)+len(f.postArena)+len(f.refs)-1] = 1 // the refs' last pad byte, after eight header fields and the arenas
	empty := frozenBytes(FreezeRows(0, 1, 8, nil))
	binary.LittleEndian.PutUint64(empty[8*4:], 2)
	return []struct {
		name, want string
		data       []byte
		maxID      int32
	}{
		{"refs one byte wider than the last list needs", "refs are 2 bytes wide, and the largest, 72, needs 1", frozenBytes(rewidth(f, 2)), 30},
		{"refs of four bytes that fit one", "refs are 4 bytes wide, and the largest, 72, needs 1", frozenBytes(rewidth(f, 4)), 30},
		{"refs one byte wider than the largest id needs", "refs are 2 bytes wide, and the largest, 29, needs 1", frozenBytes(rewidth(g, 2)), 30},
		{"a nonzero ref pad byte", "ref pad byte 2 is 0x1, not 0", padSet, 30},
		{"a ref length of 0", "implausible ref length 0", header(4, 0), 30},
		{"a ref length of 5", "implausible ref length 5", header(4, 5), 30},
		{"2-byte refs in an index of no keys", "an index of no keys has 1-byte refs, not 2-byte ones", empty, 1},
		{"a section read for a negative id bound", "a section read for -28 ids", frozenBytes(g), -28},
		{"a section read for fewer ids than it lists", "list starts at byte 10, the lists before it end at 0", frozenBytes(f), 20},
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
		sameVerdict(t, s.data, s.maxID, s.name)
	}
}

// bitmapSeeds are bitmap sections that are not the bitmap of their
// entries' keys at their width, each with the id bound it is read
// against and what reading it must say (at open for a header the
// structural tier refuses): a key more than the entries, a key fewer, a
// header width of another bitmap's, a key moved into the pad past a 3-bit
// bitmap's byte, a rank entry that does not count the keys below its
// block, lengths no bitmap of the width has, and a layout of neither
// kind.
func bitmapSeeds() []struct {
	name, want string
	data       []byte
	maxID      int32
} {
	section := func(width, keys int, edit func(b []byte)) []byte {
		rows := make([]uint64, 30) // ids i, i + keys, … share key i·⌊2^width/keys⌋, under a bitmap
		for i := range rows {
			rows[i] = uint64(i%keys) * uint64(max(1, (1<<width)/keys))
		}
		b := frozenBytes(freezeRows(len(rows), 1, width, rows, bitmapLayout))
		edit(b)
		return b
	}
	const bm = 8 * 8 // the eight header fields, then the bitmap
	header := func(field int, v uint64) func(b []byte) {
		return func(b []byte) { binary.LittleEndian.PutUint64(b[8*field:], v) }
	}
	// The rank array of a 10-bit bitmap of 128 bytes, three entries, ends
	// the section. Entry 1 counts the keys below bit 512.
	rank := func(b []byte) []byte { return b[len(b)-4*3:] }
	return []struct {
		name, want string
		data       []byte
		maxID      int32
	}{
		{"a key more than the entries", "the bitmap holds 16 keys, the section 15 entries", section(6, 15, func(b []byte) { b[bm+7] |= 0x80 }), 30},
		{"a key fewer than the entries", "the bitmap holds 14 keys, the section 15 entries", section(6, 15, func(b []byte) { b[bm] &^= 1 }), 30},
		{"a 6-bit bitmap under a header of 7 bits", "a bitmap of 8 bytes, a 7-bit partition's takes 16", section(6, 15, header(2, 7)), 30},
		{"a key moved into the pad", "bitmap pad byte 0 is 0x1, not 0", section(3, 5, func(b []byte) { b[bm] &^= 1 << 4; b[bm+1] = 1 }), 30},
		{"a rank entry one over", "rank entry 1 is 9, the bitmap holds 8 keys below bit 512", section(10, 15, func(b []byte) { rank(b)[4]++ }), 30},
		{"a bitmap of 24 bytes", "a bitmap of 24 bytes, a 6-bit partition's takes 8", section(6, 15, header(5, 24)), 30},
		{"a bitmap of 512 bits of 6-bit keys", "a bitmap of 64 bytes, a 6-bit partition's takes 8", section(6, 15, header(5, 64)), 30},
		{"a layout of 2", "unknown key layout 2", section(6, 15, header(7, 2)), 30},
	}
}

// TestHostileBitmaps: a bitmap section that does not hold its entries'
// keys at its width is refused — read from a stream and in place, each
// with its own message, the content tier's verdict the reference's.
func TestHostileBitmaps(t *testing.T) {
	for _, s := range bitmapSeeds() {
		for how, src := range map[string]func() *binio.Reader{
			"stream":   func() *binio.Reader { return binio.NewReader(bytes.NewReader(s.data)) },
			"in place": func() *binio.Reader { return binio.NewReader(binio.NewSource(s.data)) },
		} {
			if _, err := ReadFrozen(src(), s.maxID); err == nil || !strings.HasSuffix(err.Error(), s.want) {
				t.Errorf("%s, %s: reading it says %v, want %q", s.name, how, err, s.want)
			}
		}
		sameVerdict(t, s.data, s.maxID, s.name)
	}
}

// TestCollectBitmapBeforeValidate: CollectWithin over a bitmap read
// without its content tier stays inside the entry arrays. The bitmap of
// bitmapSeeds' "a key more than the entries" holds one key past the last
// entry; a scan at every radius collects at most every posting the
// section holds, and does not panic.
func TestCollectBitmapBeforeValidate(t *testing.T) {
	seeds := bitmapSeeds()
	if seeds[0].name != "a key more than the entries" {
		t.Fatalf("bitmapSeeds starts with %q", seeds[0].name)
	}
	f := readUnvalidated(seeds[0].data, seeds[0].maxID)
	if f == nil {
		t.Fatal("the structural tier refused the section: the test needs it read")
	}
	for q := range uint64(1) << f.Width() {
		for radius := range f.Width() + 1 {
			set := IDSet{Seen: make([]uint64, 1)}
			if sum := f.CollectWithin([]uint64{q}, radius, &set); sum > f.TotalPostings() {
				t.Fatalf("q=%#x radius %d: %d postings collected, the section holds %d", q, radius, sum, f.TotalPostings())
			}
		}
	}
}

// hostileSeeds are hashed sections whose directory or stored keys do not
// find the keys where the lookups look for them, each with the id bound
// it is read against and what reading it must say: a directory that
// descends, one whose first offset is not 0 and one whose last is not
// the key count; a remainder with a bit at or past the remainder's
// width; two equal remainders in one bucket; and a header width whose
// keys pack to other bytes than the section's, which the structural tier
// refuses at open.
func hostileSeeds() []struct {
	name, want string
	data       []byte
	maxID      int32
} {
	rows := make([]uint64, 40) // ids i and i + 30 share key 7i mod 210: 30 keys, ten lists of two
	for i := range rows {
		rows[i] = uint64(i%30) * 7
	}
	built := FreezeRows(len(rows), 1, 13, rows)
	if built.bitmap || built.dir16 == nil || built.remLen != 2 {
		panic("invindex: the hostile seeds want 13-bit keys in the quotient layout, 2-byte remainders")
	}
	dir := built.dir16
	// The first bucket of two keys or more, and the first offset after one
	// above 0, which can be taken below it.
	wide, step := -1, -1
	for b := range len(dir) - 1 {
		if dir[b+1]-dir[b] >= 2 && wide < 0 {
			wide = b
		}
		if b > 0 && dir[b-1] > 0 && step < 0 {
			step = b
		}
	}
	section := func(edit func(f *Frozen)) []byte {
		f := readUnvalidated(frozenBytes(built), 40)
		f.dir16 = slices.Clone(f.dir16)
		f.keyArena = slices.Clone(f.keyArena)
		edit(f)
		return frozenBytes(f)
	}
	r := 13 - bucketBits(30)
	width := frozenBytes(built)
	binary.LittleEndian.PutUint64(width[2*8:], 17) // 17-bit keys pack to 3 bytes
	return []struct {
		name, want string
		data       []byte
		maxID      int32
	}{
		{"a directory that descends", fmt.Sprintf("bucket directory offset %d is %d, below offset %d's %d", step, dir[step-1]-1, step-1, dir[step-1]),
			section(func(f *Frozen) { f.dir16[step] = dir[step-1] - 1 }), 40},
		{"a first offset that is not 0", "bucket directory offset 0 is 1, not 0", section(func(f *Frozen) { f.dir16[0] = 1 }), 40},
		{"a last offset that is not the key count", "bucket directory ends at 31, the section holds 30 keys",
			section(func(f *Frozen) { f.dir16[len(dir)-1] = 31 }), 40},
		{"a remainder bit at its width", fmt.Sprintf("key 5's remainder has bits set at or past bit %d", r),
			section(func(f *Frozen) { f.keyArena[2*5+r/8] |= 1 << (r % 8) }), 40},
		{"two equal remainders in one bucket", fmt.Sprintf("frozen keys not in strict hash order at entry %d, in bucket %d", dir[wide]+1, wide),
			section(func(f *Frozen) { copy(f.keyArena[2*(dir[wide]+1):], f.keyArena[2*dir[wide]:2*dir[wide]+2]) }), 40},
		{"a header width whose keys pack to other bytes", "keys of 2 bytes in a section of 17-bit keys, which pack to 3", width, 40},
	}
}

// TestLookupsBeforeValidate: a section read without its content tier
// answers every lookup from the arrays it was read with, whatever
// Validate would say. Every lookup form — PostingLenWord,
// PostingLenBytes, LookupKey, LookupWords and CollectWord — answers a
// read copy of a built index as the build does before Validate has run,
// and, over the hostile sections the structural tier lets through, stays
// inside the arrays, as the histogram does (threshold allocation may
// estimate before the content tier has run): a key may go unfound, or
// found under another's entry, and nothing panics. Where the refs or the
// heads are what is corrupt — a list past the arena, a head running off
// its end — the counts and the histogram stay inside the arrays too; no
// list is decoded there, which only a section Validate has passed is.
func TestLookupsBeforeValidate(t *testing.T) {
	rows := make([]uint64, 300)
	for i := range rows {
		rows[i] = uint64(i%97) * 0x9e37
	}
	built := FreezeRows(len(rows), 1, 30, rows)
	type section struct {
		data        []byte
		maxID       int32
		listsIntact bool
	}
	sections := []section{{frozenBytes(built), 300, true}}
	for _, s := range append(hostileSeeds(), bitmapSeeds()...) {
		sections = append(sections, section{s.data, s.maxID, true})
	}
	// A list ref past the arena's end, and the last list's head a run of
	// continuation bytes to the arena's end.
	pastEnd, runOff := readUnvalidated(frozenBytes(built), 300), readUnvalidated(frozenBytes(built), 300)
	last := slices.IndexFunc(entryCounts(pastEnd), func(c uint32) bool { return c > 1 })
	setRef(pastEnd, last, 300+uint32(len(pastEnd.postArena))+7)
	top := uint32(0)
	for e := range runOff.NumKeys() {
		top = max(top, runOff.ref(e))
	}
	for i := int(top) - 300; i < len(runOff.postArena); i++ {
		runOff.postArena[i] = 0x80
	}
	sections = append(sections, section{frozenBytes(pastEnd), 300, false}, section{frozenBytes(runOff), 300, false})
	for i, sec := range sections {
		f := readUnvalidated(sec.data, sec.maxID)
		if f == nil {
			continue // refused at open
		}
		words := keyWords(f)
		words = append(words, wordMask(f.width), 1<<f.width) // every key bit set, and a bit past the width
		fs := slices.Repeat([]*Frozen{f}, len(words))
		entries, counts := make([]int32, len(words)), make([]uint32, len(words))
		LookupWords(fs, words, entries, counts)
		var buf []byte
		for j, w := range words {
			key := binary.LittleEndian.AppendUint64(nil, w)[:f.KeyLen()]
			e, n := f.LookupKey([]uint64{w}, &buf), f.PostingLenWord(w)
			if int(entries[j]) != e || int(counts[j]) != n || f.PostingLenBytes(key) != n && w>>f.width == 0 {
				t.Fatalf("section %d, key %#x: LookupWords %d/%d, LookupKey %d, PostingLenWord %d, PostingLenBytes %d",
					i, w, entries[j], counts[j], e, n, f.PostingLenBytes(key))
			}
			if !sec.listsIntact {
				continue
			}
			set := IDSet{Seen: make([]uint64, 8)}
			if got := f.CollectWord(w, &set); got != n {
				t.Fatalf("section %d, key %#x: CollectWord decodes %d postings, PostingLenWord counts %d", i, w, got, n)
			}
			if i == 0 && n != built.PostingLenWord(w) {
				t.Fatalf("key %#x: %d postings read back before Validate, %d built", w, n, built.PostingLenWord(w))
			}
		}
		hist := make([]int64, 65)
		f.Histogram([]uint64{words[0]}, hist)
		if !sec.listsIntact && f.Validate() == nil {
			t.Fatalf("section %d: the content tier passes a corrupt list", i)
		}
	}
}

// TestHostileSections: a hashed section whose directory or stored keys
// would send a lookup where the key is not is refused — read from a
// stream and in place, each with its own message, the content tier's
// verdict the reference's.
func TestHostileSections(t *testing.T) {
	for _, s := range hostileSeeds() {
		for how, src := range map[string]func() *binio.Reader{
			"stream":   func() *binio.Reader { return binio.NewReader(bytes.NewReader(s.data)) },
			"in place": func() *binio.Reader { return binio.NewReader(binio.NewSource(s.data)) },
		} {
			if _, err := ReadFrozen(src(), s.maxID); err == nil || !strings.HasSuffix(err.Error(), s.want) {
				t.Errorf("%s, %s: ReadFrozen says %v, want %q", s.name, how, err, s.want)
			}
		}
		sameVerdict(t, s.data, s.maxID, s.name)
	}
}

// bucketOrderSeeds are sections whose keys are not in hash order, each
// with the id bound it is read against and what reading it must say: in
// the quotient layout (13-bit keys), the remainders of a bucket's first
// two keys swapped; in the byte layout (70-bit keys), a key moved
// behind the first key of the next bucket that has one, and a bucket's
// first two keys swapped. The directory is the build's in each.
func bucketOrderSeeds() []struct {
	name, want string
	data       []byte
	maxID      int32
} {
	// ids i and i + 30 share key i: 30 keys, ten lists of two; the
	// 70-bit keys hold 7i in their low word and i in their high bits.
	narrow, wideRows := make([]uint64, 40), make([]uint64, 80)
	for i := range narrow {
		narrow[i] = uint64(i%30) * 7
		wideRows[2*i], wideRows[2*i+1] = uint64(i%30)*7, uint64(i%30)
	}
	quot, byKeys := FreezeRows(len(narrow), 1, 13, narrow), FreezeRows(len(narrow), 1, 70, wideRows)
	if quot.bitmap || !quot.quotient() || byKeys.quotient() || byKeys.keyLen != 16 {
		panic("invindex: the bucket order seeds want 13-bit keys in the quotient layout and 70-bit keys in the byte layout")
	}
	// The first bucket of two keys or more, the first holding a key, and
	// the next after that holding one.
	buckets := func(f *Frozen) (wide, from, to int) {
		dir, _ := dirTable(f)
		wide, from, to = -1, -1, -1
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
		return wide, from, to
	}
	// section is f's bytes with its stored keys, each n bytes, put in the
	// order order gives: entry e holds the key entry order(e) held.
	section := func(f *Frozen, n int, order func(keys [][]byte) [][]byte) []byte {
		g := readUnvalidated(frozenBytes(f), 40)
		var keys [][]byte
		for e := range g.NumKeys() {
			keys = append(keys, slices.Clone(g.keyArena[n*e:n*(e+1)]))
		}
		g.keyArena = slices.Clone(g.keyArena)
		copy(g.keyArena, slices.Concat(order(keys)...))
		return frozenBytes(g)
	}
	swap := func(e int) func(keys [][]byte) [][]byte {
		return func(keys [][]byte) [][]byte {
			keys[e], keys[e+1] = keys[e+1], keys[e]
			return keys
		}
	}
	qDir, _ := dirTable(quot)
	qWide, _, _ := buckets(quot)
	bDir, _ := dirTable(byKeys)
	bWide, from, to := buckets(byKeys)
	moved := func(keys [][]byte) [][]byte {
		k := keys[bDir[from]]
		return slices.Insert(slices.Delete(keys, int(bDir[from]), int(bDir[from])+1), int(bDir[to]), k)
	}
	return []struct {
		name, want string
		data       []byte
		maxID      int32
	}{
		{"two remainders of a bucket out of order", fmt.Sprintf("frozen keys not in strict hash order at entry %d, in bucket %d", qDir[qWide]+1, qWide),
			section(quot, quot.remLen, swap(int(qDir[qWide]))), 40},
		// The keys behind the moved one each step back an entry, so the
		// first key of bucket to ends bucket from, the moved key behind it.
		{"a key moved into the next bucket", fmt.Sprintf("frozen key %d hashes to bucket %d, the directory puts it in bucket %d", bDir[to]-1, to, from),
			section(byKeys, 16, moved), 40},
		{"two keys of a bucket out of order", fmt.Sprintf("frozen keys not in strict hash order at entry %d, in bucket %d", bDir[bWide]+1, bWide),
			section(byKeys, 16, swap(int(bDir[bWide]))), 40},
	}
}

// TestHostileBucketOrder: a section whose keys are not in hash order —
// not in the bucket the directory puts them in, or not in order inside
// a bucket — is refused: read from a stream and in place, each with its
// own message, the content tier's verdict the reference's.
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
		sameVerdict(t, s.data, s.maxID, s.name)
	}
}
