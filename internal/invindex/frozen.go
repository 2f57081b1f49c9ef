package invindex

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"gph/internal/binio"
	"gph/internal/bitvec"
	"gph/internal/cpu"
	"gph/internal/verify"
)

// Frozen is the immutable, compact form of an inverted index: the
// query substrate every filter-and-refine engine probes, built by
// FreezeRows. It stores
//
//   - its keys in one of three layouts (FreezeRows decides). The quotient
//     layout, for a partition of 1 to 64 bits, hashes each distinct key by
//     a bijection of its w bits (hashQuot), puts the keys in the order of
//     their hashes and makes the hash's top bucketBits(n) bits a key's
//     bucket; it stores only the r = w − bucketBits(n) low bits the bucket
//     does not already say, the key's remainder, in ⌈r/8⌉ bytes (remLen),
//     concatenated in one arena, so a bucket's remainders strictly ascend
//     and a key is the inverse hash of its bucket and remainder. Keys wider
//     than a word, and keys of no bits, keep their bytes instead, keyLen
//     each, in the order of hashKey (bytes breaking a tie, and the bucket
//     the hash's top bits). The bitmap layout, for a partition of w ≤
//     maxBitmapWidth bits, keeps one bit for each of the 2^w keys the
//     partition can hold, set where it holds one (at least a word of
//     them), and its entries in ascending key order: key k's entry is its
//     rank, the number of keys below it;
//   - one ref an entry, which says both how many ids the entry lists and
//     where they are: a ref below maxID, the id bound, is the id of an
//     entry with one, and a ref of maxID + off is a list at byte off of a
//     second arena — an entry of two or more ids, written as
//     varint(count − 2), then its ids delta-varint encoded (ids are
//     ascending, so gaps are small and most postings cost 1–2 bytes), each
//     list starting where the one before it ends. A ref takes the bytes the
//     largest needs (refLen); a count has no array of its own;
//   - what finds a key's entry, written with the section like the rest.
//     In the hashed layouts it is a directory of where each bucket's
//     entries start, so a probe is one hash, two adjacent directory reads
//     and a compare over the bucket's one or two stored keys; its offsets
//     are 16 bits wide when the index has at most 65 535 keys and 32
//     otherwise. In the bitmap layout it is a rank array, the keys below
//     each 512-bit block of the bitmap, so a probe is a bit test, one rank
//     read and the popcounts of the block's words before the key's
//     (rankOf).
//
// Lookups are allocation-free (keys hash and compare against the arena
// directly, or test their bit), SizeBytes is exact arithmetic over the
// backing slices rather than an estimate, and every array serializes
// as-is, so loading a persisted frozen index is O(bytes) slicing, and
// nothing is derived after it: the directory or rank array cannot be
// recomputed from remainders, so it is read with the rest.
//
// A Frozen is immutable after FreezeRows/ReadFrozen and safe for
// concurrent use (deferred validation is internally synchronized).
type Frozen struct {
	keyArena  []byte // quotient layout: remainders, remLen bytes each, in hash order, then the pad (keyPad); byte layout: keys, keyLen bytes each; bitmap layout: the bitmap
	keyLen    int    // bytes a key takes written out, KeyLen of width
	remLen    int    // bytes a stored key takes: its remainder's in the quotient layout, keyLen in the byte layout
	width     int    // bits a key holds: its partition's width, which the section header carries
	postArena []byte // lists of two or more ids, in entry order: each varint(count − 2), then the ids delta-varint encoded
	refs      []byte // refLen little-endian bytes an entry, then the pad (refPad): below maxID the id of a one-id entry, else maxID + where its list starts in postArena
	refLen    int    // bytes a ref, refLenFor the largest
	numKeys   int    // distinct keys, one entry each
	postings  int64  // total postings across all keys

	// The bucket directory: the entries of bucket b, the keys whose hash
	// is b in its top bits, are dir[b] up to dir[b+1]. It has
	// 2^bucketBits(n) + 1 offsets for n keys, in dir16 when n is at most
	// maxNarrowKeys and in dir32 otherwise, the other field nil; dirShift
	// is what bucket shifts a hash by to find its bucket, which in the
	// quotient layout is the remainder's bits less one. In the bitmap
	// layout dir32 is the rank array instead (rankLen).
	dir16    []uint16
	dir32    []uint32
	dirShift uint
	bitmap   bool // the bitmap layout: keyArena is the bitmap, dir32 its rank array

	// maxID is the id bound, the number of ids the index may list: a ref
	// below it is an id, a ref from it a list, and Validate checks postings
	// against it. A build sets it to its id count, a read to the bound its
	// caller gives, which is never negative. deepOnce/deepErr make Validate
	// (see ReadPayload) idempotent and safe under concurrent first queries.
	maxID    int32
	deepOnce sync.Once
	deepErr  error
}

// arenaLimit bounds each arena to what persistence can read back
// (binio caps decoded slice lengths at MaxSliceLen, which is also
// comfortably within what the uint32 offsets address) — an arena
// FreezeRows accepts must never produce a file ReadFrozen rejects.
const arenaLimit = binio.MaxSliceLen

// KeyLen returns the bytes the key of a width-bit projection takes:
// ⌈width/8⌉ for a partition of at most 64 bits — the projection's word
// without its zero high bytes — and its 8·⌈width/64⌉ bytes of whole
// words beyond.
func KeyLen(width int) int {
	if width <= 64 {
		return (width + 7) / 8
	}
	return 8 * ((width + 63) / 64)
}

// keyPad returns how many zero bytes end an arena of n keys of
// keyLen bytes: 8 − keyLen when keys are shorter than a word, so the
// last key's 8-byte load stays in the arena, and none otherwise.
func keyPad(keyLen, n int) int {
	if keyLen > 0 && keyLen < 8 && n > 0 {
		return 8 - keyLen
	}
	return 0
}

// quotientWidth reports whether a partition of width bits keeps its
// hashed keys in the quotient layout: 1 to 64 bits, a key one word.
func quotientWidth(width int) bool { return uint(width-1) < 64 }

// quotient reports whether f keeps the quotient layout.
func (f *Frozen) quotient() bool { return !f.bitmap && quotientWidth(f.width) }

// wordMask keeps the low width bits of a word, width 1 to 64. The shift
// is taken mod 64, which is exact there and spares the compiler's guard
// for shifts past the word.
func wordMask(width int) uint64 { return ^uint64(0) >> ((64 - width) & 63) }

// remMask keeps a quotient-layout key's remainder bits: the dirShift + 1
// low bits of its hash.
func (f *Frozen) remMask() uint64 { return ^uint64(0) >> ((63 - f.dirShift) & 63) }

// remBytes returns the bytes the remainder of a width-bit key takes in a
// quotient-layout index of n keys: ⌈r/8⌉ of its r = width − bucketBits(n)
// bits, at least one of them, since n ≤ 2^width.
func remBytes(width, n int) int { return (width - bucketBits(n) + 7) / 8 }

// refLenFor returns the bytes a ref takes in an index whose largest ref
// is top: as many as top's significant bits fill, at least one.
func refLenFor(top uint32) int { return max(1, (bits.Len32(top)+7)/8) }

// refPad returns how many zero bytes end the refs of n entries of refLen
// bytes: 4 − refLen when there is an entry, so the last ref's 4-byte load
// stays in the array.
func refPad(refLen, n int) int {
	if n > 0 {
		return 4 - refLen
	}
	return 0
}

// addList ends the entry whose key was just appended to the key arena:
// it encodes ids, ascending and at least one, as the entry's list when
// there are two or more — the count less two, then the ids — and returns
// the entry's ref.
func (f *Frozen) addList(ids []int32) uint32 {
	ref := uint32(ids[0])
	if len(ids) > 1 {
		ref = uint32(f.maxID) + uint32(len(f.postArena))
		f.postArena = binary.AppendUvarint(f.postArena, uint64(len(ids)-2))
		prev := int32(0)
		for _, id := range ids {
			f.postArena = binary.AppendUvarint(f.postArena, uint64(uint32(id-prev)))
			prev = id
		}
	}
	if int64(len(f.keyArena)) >= arenaLimit || int64(len(f.postArena)) >= arenaLimit {
		panic("invindex: arena exceeds 2 GiB; shard the collection instead")
	}
	f.postings += int64(len(ids))
	return ref
}

// packRefs stores a build's refs, one an entry, in the bytes the largest
// needs, then the pad.
func (f *Frozen) packRefs(refs []uint32) {
	top := uint32(0)
	for _, r := range refs {
		top = max(top, r)
	}
	rl := refLenFor(top)
	f.refLen, f.refs = rl, make([]byte, rl*len(refs)+refPad(rl, len(refs)))
	// Each 4-byte store writes the ref and zeroes the bytes after it — the
	// next ref's, which its own store then writes, or the pad's.
	for e, r := range refs {
		binary.LittleEndian.PutUint32(f.refs[rl*e:], r)
	}
}

// FreezeRows is the one builder of a Frozen. rows holds n·per keys of
// ⌈width/64⌉ words, each a width-bit projection (no bit set at or past
// width), and key k belongs to id k/per: GPH, MIH, LSH and partition
// refinement freeze one key an id, the deletion-variant engines w + 1
// (FreezeVariants). A key is stored as its KeyLen(width) low bytes in
// little-endian order, and lists, ascending and once each, the ids that
// have it. The keys are sorted in place of a map — a map's keys,
// buckets and one-id lists take megabytes a partition, and a build runs
// one per worker — and the distinct keys then put in hash order, or
// under a bitmap where that takes fewer bytes (useBitmap).
func FreezeRows(n, per, width int, rows []uint64) *Frozen {
	return freezeRows(n, per, width, rows, pickLayout)
}

// layoutChoice is how freezeRows lays out the keys: by their bytes
// (pickLayout, what FreezeRows does), or one layout whatever its bytes,
// for tests that hold the two to each other.
type layoutChoice int

const (
	pickLayout layoutChoice = iota
	hashLayout
	bitmapLayout
)

// maxBitmapWidth is the widest partition the bitmap layout holds: its
// 2^32 bits take 512 MiB, a quarter of what an arena may (arenaLimit).
const maxBitmapWidth = 32

// bitmapBytes returns the bytes of the bitmap of a width-bit key space,
// width ≤ maxBitmapWidth: 2^width bits, at least a word of them, so every
// read of the bitmap is a whole word.
func bitmapBytes(width int) int { return max(8, 1<<width/8) }

// rankLen returns the entries of the rank array of a bitmap of the given
// bytes: one a 512-bit block, the keys below the block, and one past the
// last, the key count.
func rankLen(bitmapBytes int) int { return (bitmapBytes+63)/64 + 1 }

// useBitmap reports whether the bitmap layout holds the distinct keys of
// a width-bit partition in fewer bytes than the hashed layout — the
// bitmap and its rank array against the stored keys and the directory —
// which is the layout rule: bytes alone, so what a partition gets follows
// from its width and key count.
func useBitmap(width, distinct int) bool {
	if width < 1 || width > maxBitmapWidth {
		return false
	}
	bm := bitmapBytes(width)
	rl := remBytes(width, distinct)
	return int64(bm)+4*int64(rankLen(bm)) < int64(rl*distinct+keyPad(rl, distinct))+directoryBytes(distinct)
}

// freezeRows is FreezeRows with the layout chosen by how.
func freezeRows(n, per, width int, rows []uint64, how layoutChoice) *Frozen {
	w := (width + 63) / 64
	keys := n * per
	if len(rows) != keys*w || keys > math.MaxInt32 {
		panic(fmt.Sprintf("invindex: %d words for %d ids of %d keys of %d words", len(rows), n, per, w))
	}
	keyLen := KeyLen(width)
	key := func(k int32) []uint64 { return rows[int(k)*w : (int(k)+1)*w] }
	order := sortKeys(keys, w, keyLen, rows)
	// runs[r] is where the r-th distinct key's run of equal keys starts in
	// order, runs[distinct] the end; counted first, so the array is made
	// once at its size.
	newRun := func(j int) bool { return j == 0 || !slices.Equal(key(order[j]), key(order[j-1])) }
	distinct := 0
	for j := range keys {
		if newRun(j) {
			distinct++
		}
	}
	runs := make([]int32, 0, distinct+1)
	for j := range keys {
		if newRun(j) {
			runs = append(runs, int32(j))
		}
	}
	runs = append(runs, int32(keys))
	shared := 0 // the runs of two keys or more
	for r := range distinct {
		if runs[r+1]-runs[r] > 1 {
			shared++
		}
	}
	f := &Frozen{
		keyLen: keyLen,
		width:  width,
		// A list of c ids repeats its key c − 1 times: 2(c − 1) + 1 ≥ c + 1
		// bytes holds its head and its ids at a byte a gap.
		postArena: make([]byte, 0, 2*(keys-distinct)+shared),
		numKeys:   distinct,
		maxID:     int32(n),
	}
	runKey := func(r int32) []uint64 { return key(order[runs[r]]) }
	var hashOf func(r int32) uint64 // a run's hash, in a hashed layout
	var entries []int32             // the runs in entry order
	switch {
	case how == bitmapLayout || how == pickLayout && useBitmap(width, distinct):
		entries = f.layBitmap(width, distinct, func(r int32) uint64 { return runKey(r)[0] })
	case quotientWidth(width):
		f.remLen, f.dirShift = remBytes(width, distinct), uint(width-1-bucketBits(distinct))
		hashOf = func(r int32) uint64 { return hashQuot(width, runKey(r)[0]) }
	default:
		f.remLen, f.dirShift = keyLen, dirShift(distinct)
		hashOf = func(r int32) uint64 { return hashWords(keyLen, runKey(r)) }
	}
	var dir []uint32
	if !f.bitmap {
		// A stored key shorter than a word is written as its whole word and
		// cut back: the last one's word ends where the pad does.
		f.keyArena = make([]byte, 0, f.remLen*distinct+keyPad(f.remLen, distinct))
		entries = hashRuns(distinct, f.dirShift, hashOf)
		dir = make([]uint32, 1<<bucketBits(distinct)+1)
	}
	// Refs are gathered at full width and stored at the width they need
	// once the largest is known.
	refs := make([]uint32, 0, distinct)
	for e, r := range entries {
		j, end := runs[r], runs[r+1]
		if !f.bitmap {
			h, start := hashOf(r), len(f.keyArena)
			// In hash order the last key of a bucket writes where it ends.
			dir[bucket(h, f.dirShift)+1] = uint32(e + 1)
			if f.quotient() {
				f.keyArena = binary.LittleEndian.AppendUint64(f.keyArena, h&f.remMask())
			} else {
				for _, word := range runKey(r) {
					f.keyArena = binary.LittleEndian.AppendUint64(f.keyArena, word)
				}
			}
			f.keyArena = f.keyArena[:start+f.remLen]
		}
		// The run's keys become its ids where they lie: an id is written
		// no later than its key is read.
		ids := order[j:j]
		for _, kk := range order[j:end] {
			if id := kk / int32(per); len(ids) == 0 || ids[len(ids)-1] != id {
				ids = append(ids, id)
			}
		}
		refs = append(refs, f.addList(ids))
	}
	if !f.bitmap {
		f.keyArena = append(f.keyArena, make([]byte, keyPad(f.remLen, distinct))...)
		f.setDir(dir)
	}
	f.packRefs(refs)
	return f
}

// setDir keeps the directory whose offset b + 1 holds where bucket b
// ends, 0 for a bucket no key fell in, at the width the key count asks
// for: a running maximum carries each end over the empty buckets after
// it.
func (f *Frozen) setDir(ends []uint32) {
	var end uint32
	for b, o := range ends {
		end = max(end, o)
		ends[b] = end
	}
	if f.NumKeys() > maxNarrowKeys {
		f.dir32 = ends
		return
	}
	f.dir16 = make([]uint16, len(ends))
	for b, o := range ends {
		f.dir16[b] = uint16(o)
	}
}

// hashRuns returns the runs 0 up to distinct, which are in lexicographic
// key order and whose hashes hashOf gives, in hash order; shift is what
// bucket shifts a hash by. One stable counting pass puts them in bucket
// order, and each bucket's few are then sorted by hash, stably, so the
// bytes break a tie (keys of several words). A run's hash is taken again
// where it is needed rather than kept: the build's peak is its arrays,
// and a hash is one multiply a word.
func hashRuns(distinct int, shift uint, hashOf func(r int32) uint64) []int32 {
	next := make([]int32, 1<<bucketBits(distinct)+1) // next[b+1] counts bucket b's runs, then sums to where they go
	for r := range int32(distinct) {
		next[bucket(hashOf(r), shift)+1]++
	}
	for b := 1; b < len(next); b++ {
		next[b] += next[b-1]
	}
	byHash := make([]int32, distinct)
	for r := range int32(distinct) {
		b := bucket(hashOf(r), shift)
		byHash[next[b]] = r
		next[b]++
	}
	for lo, hi := 0, 0; lo < distinct; lo = hi {
		hi = int(next[bucket(hashOf(byHash[lo]), shift)]) // where lo's bucket ends
		switch in := byHash[lo:hi]; {
		case len(in) == 2 && hashOf(in[1]) < hashOf(in[0]):
			in[0], in[1] = in[1], in[0]
		case len(in) > 2:
			slices.SortStableFunc(in, func(a, b int32) int { return cmp.Compare(hashOf(a), hashOf(b)) })
		}
	}
	return byHash
}

// layBitmap makes f's keys the bitmap of a width-bit key space holding
// the keys of the runs 0 up to distinct, which keyOf gives, builds its
// rank array, and returns the runs in entry order: ascending key, each
// at its key's rank.
func (f *Frozen) layBitmap(width, distinct int, keyOf func(r int32) uint64) []int32 {
	f.bitmap, f.keyArena = true, make([]byte, bitmapBytes(width))
	for r := range int32(distinct) {
		k := keyOf(r)
		f.keyArena[k/8] |= 1 << (k % 8)
	}
	f.dir32 = fillRank(f.keyArena, make([]uint32, rankLen(len(f.keyArena))))
	byKey := make([]int32, distinct)
	for r := range int32(distinct) {
		byKey[f.rankOf(keyOf(r))] = r
	}
	return byKey
}

// ProjectRows returns the rows FreezeRows takes for codes' rows
// projected onto dims: one key an id, ⌈len(dims)/64⌉ words each.
func ProjectRows(codes *verify.Codes, dims []int) []uint64 {
	w := (len(dims) + bitvec.WordBits - 1) / bitvec.WordBits
	rows := make([]uint64, codes.Len()*w)
	for id := range codes.Len() {
		codes.Row(int32(id)).ProjectInto(dims, bitvec.FromWordsSharedUnchecked(len(dims), rows[id*w:(id+1)*w]))
	}
	return rows
}

// sortKeys returns the numbers of the keys in rows — keys of w words,
// keyLen bytes each read little-endian — in the lexicographic order of
// their bytes, ties in number order: k/per grows with k, so each key's
// ids come out ascending. It is a least-significant-digit radix sort, a
// byte a pass from a key's last byte to its first, each pass stable; a
// pass that finds every key holding one value in its byte moves nothing.
func sortKeys(keys, w, keyLen int, rows []uint64) []int32 {
	order, next := make([]int32, keys), make([]int32, keys)
	for i := range order {
		order[i] = int32(i)
	}
	for b := keyLen - 1; b >= 0; b-- {
		word, shift := b/8, 8*uint(b%8)
		var start [257]int // start[v+1] counts the keys whose byte is v, then sums to where they go
		for _, k := range order {
			start[rows[int(k)*w+word]>>shift&0xff+1]++
		}
		if slices.Contains(start[1:], keys) {
			continue
		}
		for v := 1; v < len(start); v++ {
			start[v] += start[v-1]
		}
		for _, k := range order {
			v := rows[int(k)*w+word] >> shift & 0xff
			next[start[v]] = k
			start[v]++
		}
		order, next = next, order
	}
	return order
}

// hashMul is 2⁶⁴/φ rounded to odd, the usual multiplicative-hashing
// constant, and hashInv its inverse mod 2⁶⁴: odd, so it has one, and
// hashMul·hashInv ≡ 1 mod 2^w for every w ≤ 64 as well.
const (
	hashMul = 0x9E3779B97F4A7C15
	hashInv = 0xF1DE83E19937733D
)

// hashQuot is the quotient layout's hash of a width-bit key x: x·hashMul
// mod 2^width, a bijection of the width-bit words — the key whose hash
// is h is h·hashInv mod 2^width. A product's bit j depends on the key's
// bits up to j, so its top bits, a key's bucket, depend on all of them,
// and keys whose entropy sits in their low bits spread over the buckets.
//
// The hash is part of the file format: a saved index stores each key as
// its hash's bucket and remainder, so an edit to hashQuot or its
// constants makes every saved index hold other keys. TestHashIsFormat
// pins it.
func hashQuot(width int, x uint64) uint64 { return x * hashMul & wordMask(width) }

// mix folds one 8-byte key word into the running hash of a key of the
// byte layout: an xor, then a multiply by hashMul mod 2⁶⁴. Keys are
// packed projections whose entropy sits in their low bits, and a key's
// bucket is the hash's top bits; the multiply carries every input bit up
// into them. Like hashQuot it is part of the file format: a saved index
// of keys wider than a word holds them in the order of their hashes.
func mix(h, w uint64) uint64 { return (h ^ w) * hashMul }

// hashKey hashes a key a little-endian word at a time (a shorter tail
// zero-extended), seeded with the length so a tail's zero bytes count.
func hashKey(key []byte) uint64 {
	h := uint64(len(key))
	i := 0
	for ; i+8 <= len(key); i += 8 {
		_ = key[i+7]
		h = mix(h, uint64(key[i])|uint64(key[i+1])<<8|uint64(key[i+2])<<16|uint64(key[i+3])<<24|
			uint64(key[i+4])<<32|uint64(key[i+5])<<40|uint64(key[i+6])<<48|uint64(key[i+7])<<56)
	}
	if i < len(key) {
		var tail uint64
		for j := i; j < len(key); j++ {
			tail |= uint64(key[j]) << (8 * uint(j-i))
		}
		h = mix(h, tail)
	}
	return h
}

// hashWords is hashKey of the keyLen-byte key held in the little-endian
// words key: one word for keyLen ≤ 8, keyLen/8 otherwise.
func hashWords(keyLen int, key []uint64) uint64 {
	h := uint64(keyLen)
	for _, w := range key {
		h = mix(h, w)
	}
	return h
}

// bucketBits returns b for an index of n keys: 2^b buckets, the power
// of two in [n/2, n), so a bucket holds one or two keys on average, and
// one bucket for n ≤ 2. It is a function of the key count alone, so a
// read index has the directory its build had.
func bucketBits(n int) int {
	if n <= 2 {
		return 0
	}
	return bits.Len(uint(n-1)) - 1
}

// dirShift returns what bucket shifts a 64-bit hash (hashKey's) by in an
// index of n keys: 63 − bucketBits(n). A quotient-layout hash has the
// key's width in bits, w, and is shifted by w − 1 − bucketBits(n).
func dirShift(n int) uint { return 63 - uint(bucketBits(n)) }

// bucket returns the bucket of hash h in an index whose dirShift is
// shift: the bits of h above its lowest shift + 1, none for one bucket.
// Both shifts are below 64, so neither needs the guard a shift by 64
// would.
func bucket(h uint64, shift uint) uint64 { return h >> 1 >> (shift & 63) }

// maxNarrowKeys is the most keys a directory of uint16 offsets reaches:
// the last offset is the key count.
const maxNarrowKeys = math.MaxUint16

// dirOffset is the type of a directory offset.
type dirOffset interface{ uint16 | uint32 }

// directoryBytes returns the bytes of the directory of an index of n keys:
// 2^bucketBits(n) + 1 offsets of 2 bytes up to maxNarrowKeys keys, of 4
// beyond.
func directoryBytes(n int) int64 {
	offsets := int64(1)<<bucketBits(n) + 1
	if n <= maxNarrowKeys {
		return 2 * offsets
	}
	return 4 * offsets
}

// key returns key e of an index of the byte layout.
func (f *Frozen) key(e int) []byte { return f.keyArena[e*f.keyLen : (e+1)*f.keyLen] }

// lookupBytes returns the entry index for key, or −1: a key of one word
// is looked up as the word, a wider one by hashing and comparing bytes.
func (f *Frozen) lookupBytes(key []byte) int {
	if f.bitmap || f.quotient() {
		if len(key) != f.keyLen {
			return -1
		}
		var w uint64
		for i, b := range key {
			w |= uint64(b) << (8 * i)
		}
		return f.lookupWord(w)
	}
	lo, hi := f.span(hashKey(key))
	for e := lo; e < min(hi, f.NumKeys()); e++ {
		if bytes.Equal(f.key(e), key) {
			return e
		}
	}
	return -1
}

// lookupWord is lookupBytes for the key holding w in its keyLen
// little-endian bytes — the packed projection of a partition of at most
// 64 bits — without the bytes: the word is hashed, and its remainder
// compared, as a word. A w with a bit at or past the width is held under
// no key.
func (f *Frozen) lookupWord(w uint64) int {
	e, _ := f.probeWord(w)
	return e
}

// probeWord is lookupWord with the entry's count, 0 for none: the call
// a probe makes, lookupWord and PostingLenWord inlined around it.
func (f *Frozen) probeWord(w uint64) (e, count int) {
	switch {
	case f.bitmap:
		e = f.bitmapEntry(w)
	case !f.quotient() || f.numKeys == 0 || w > wordMask(f.width):
		return -1, 0 // keys of several words, or of none, or no keys, or a key past the width
	default:
		h := hashQuot(f.width, w)
		lo, hi := f.span(h)
		e = f.inBucket(lo, hi, h&f.remMask())
	}
	if e < 0 {
		return e, 0
	}
	return e, int(f.refCount(f.ref(e)))
}

// inBucket returns the entry among lo up to hi, a bucket of a
// quotient-layout index of at least one key, whose remainder is rem, or
// −1. It compares the bucket's first two remainders without a branch,
// which settles a bucket of one or two keys, most of them: whether a
// probe hits its bucket's first key is a coin toss no predictor learns.
// A remainder outside the bucket may equal rem and still be another key,
// so each compare is held to the bucket's end; the reads stop at the
// arena's last key. A longer bucket's rest is walked by walkBucket.
func (f *Frozen) inBucket(lo, hi int, rem uint64) int {
	rl, keep, last := f.remLen, f.remMask(), f.NumKeys()-1
	e0, e1 := min(lo, last), min(lo+1, last)
	// Nonzero where the entry is not rem's or lies past the bucket: the
	// sign of hi − lo − 1 − i, spread over the word.
	miss0 := binary.LittleEndian.Uint64(f.keyArena[rl*e0:])&keep ^ rem | uint64((hi-lo-1)>>63)
	miss1 := binary.LittleEndian.Uint64(f.keyArena[rl*e1:])&keep ^ rem | uint64((hi-lo-2)>>63)
	e := -1
	if miss1 == 0 {
		e = e1
	}
	if miss0 == 0 {
		e = e0
	}
	if hi-lo > 2 && e < 0 {
		e = f.walkBucket(lo+2, min(hi, last+1), rem)
	}
	return e
}

// walkBucket is inBucket over the entries from lo up to hi, a key at a
// time.
func (f *Frozen) walkBucket(lo, hi int, rem uint64) int {
	for e := lo; e < hi; e++ {
		if binary.LittleEndian.Uint64(f.keyArena[f.remLen*e:])&f.remMask() == rem {
			return e
		}
	}
	return -1
}

// span returns the entries of the bucket hash h falls in: from lo up to
// hi, as the directory gives them. Before the content tier has judged a
// read directory they may lie anywhere; every reader of a span bounds it
// by the key count.
func (f *Frozen) span(h uint64) (lo, hi int) {
	b := bucket(h, f.dirShift)
	if d := f.dir16; d != nil {
		return int(d[b]), int(d[b+1])
	}
	return int(f.dir32[b]), int(f.dir32[b+1])
}

// fillRank fills rank, rankLen(len(bm)) entries, with the keys of bitmap
// bm below each 512-bit block, and the last with all of them, and returns
// it.
func fillRank(bm []byte, rank []uint32) []uint32 {
	var below uint32
	for b := range rank {
		rank[b] = below
		below += blockKeys(bm, b)
	}
	return rank
}

// blockKeys returns the keys bitmap bm holds in its 512-bit block b, none
// past its end.
func blockKeys(bm []byte, b int) uint32 {
	var keys uint32
	for i := 64 * b; i < min(64*(b+1), len(bm)); i += 8 {
		keys += uint32(bits.OnesCount64(binary.LittleEndian.Uint64(bm[i:])))
	}
	return keys
}

// rankOf returns the entry of key w in the bitmap layout, −1 when the
// bitmap does not hold w: its rank, the keys below it. In a bitmap of
// whole 512-bit blocks that is read off the half-block w lies in: in the
// lower half, w's block's rank entry plus the half's keys below w; in the
// upper half, the next block's rank entry less the half's keys at or
// above w. Either way four words are counted, each masked to the bits on
// w's side (all, some or none), and the half picks the words, masks, sign
// and entry arithmetically: a branch on it, or a loop that stopped at
// w's word, would mispredict on a probe in two.
func (f *Frozen) rankOf(w uint64) int {
	bm := f.keyArena
	if w >= 8*uint64(len(bm)) || bm[w/8]>>(w%8)&1 == 0 {
		return -1
	}
	if len(bm) < 64 { // less than a block: its keys below w
		e, below := 0, int(w)
		for at := 0; at < len(bm); at += 8 {
			e += popBelow(bm[at:at+8], below-8*at, 0)
		}
		return e
	}
	half := int(w / 256 % 2)
	h := (*[32]byte)(bm[w/256*32:])
	below, flip := int(w%256), -uint64(half) // flip turns "below w" into "at or above w"
	n := popBelow(h[0:8], below, flip) + popBelow(h[8:16], below-64, flip) +
		popBelow(h[16:24], below-128, flip) + popBelow(h[24:32], below-192, flip)
	return int(f.dir32[int(w/512)+half]) + n*(1-2*half)
}

// popBelow returns the set bits of the little-endian word in b among its
// lowest k — none for k ≤ 0, all 64 for k ≥ 64 — or, with flip all ones,
// among the rest.
func popBelow(b []byte, k int, flip uint64) int {
	keep := ^uint64(0) >> (64 - uint(min(max(k, 0), 64)))
	return bits.OnesCount64(binary.LittleEndian.Uint64(b) & (keep ^ flip))
}

// bitmapEntry is rankOf for a lookup: an entry outside the entries — a
// bitmap or rank array its deferred validation has yet to reject — reads
// as the last or as none, so no lookup leaves the entry arrays.
func (f *Frozen) bitmapEntry(w uint64) int {
	return max(min(f.rankOf(w), f.NumKeys()-1), -1)
}

// LookupKey returns the entry the key held in the little-endian words key
// is under, −1 for none — an entry number as CollectEntry, EntryLen and
// ForEachEntry take it: a key of one word is looked up by the word, a
// wider one by its bytes, written into *buf, which the caller keeps from
// call to call.
//
//gph:hotpath
func (f *Frozen) LookupKey(key []uint64, buf *[]byte) int {
	if len(key) == 1 {
		return f.lookupWord(key[0])
	}
	b := (*buf)[:0]
	for _, word := range key {
		b = binary.LittleEndian.AppendUint64(b, word)
	}
	*buf = b
	return f.lookupBytes(b)
}

// LookupWords is lookupWord for a batch, one index a position: entries[i]
// receives the number of the entry fs[i] holds the key words[i] under,
// −1 when it holds none, and counts[i] that entry's posting count, 0 for
// none. A lookup is a chain of dependent loads — directory, remainders,
// ref, and a list's head — and most of them miss the cache when every
// position reads another index, so the batch runs in stages: every hash
// and directory read (counts[i] holding where the bucket ends until the
// last stage), then every bucket's remainders, then every ref (counts[i]
// holding it), then every list's head, a stage's loads in flight side by
// side instead of one chain waiting behind another; a collect of a list
// found here then finds its head in cache. A position whose index keeps a
// bitmap (its bit and rank read side by side) or does not keep the
// quotient layout, or keeps no key, or whose word has a bit past the
// width, is looked up whole in the first stage. A nil fs[i] is skipped,
// entries[i] and counts[i] left as they were.
//
//gph:hotpath
func LookupWords(fs []*Frozen, words []uint64, entries []int32, counts []uint32) {
	words, entries, counts = words[:len(fs)], entries[:len(fs)], counts[:len(fs)]
	for i, f := range fs {
		switch {
		case f == nil:
		case f.bitmap:
			entries[i] = int32(f.bitmapEntry(words[i]))
		case !f.quotient() || f.numKeys == 0 || words[i] > wordMask(f.width):
			entries[i] = -1
		default:
			lo, hi := f.span(hashQuot(f.width, words[i]))
			entries[i], counts[i] = int32(min(lo, f.numKeys)), uint32(hi)
		}
	}
	for i, f := range fs {
		if f != nil && !f.bitmap && entries[i] >= 0 {
			rem := hashQuot(f.width, words[i]) & f.remMask()
			entries[i] = int32(f.inBucket(int(entries[i]), int(counts[i]), rem))
		}
	}
	for i, f := range fs {
		if f != nil && entries[i] >= 0 {
			counts[i] = f.ref(int(entries[i]))
		}
	}
	for i, f := range fs {
		switch {
		case f == nil:
		case entries[i] < 0:
			counts[i] = 0
		default:
			counts[i] = f.refCount(counts[i])
		}
	}
}

// NumKeys returns the number of distinct keys.
func (f *Frozen) NumKeys() int { return f.numKeys }

// KeyLen returns the bytes each key takes written out: KeyLen(Width()).
func (f *Frozen) KeyLen() int { return f.keyLen }

// Width returns the bits each key holds, as the section header carries
// them. Loaders check it against the partition's width.
func (f *Frozen) Width() int { return f.width }

// TotalPostings returns the total number of (key, id) pairs.
func (f *Frozen) TotalPostings() int64 { return f.postings }

// count returns the length of entry e's posting list, 0 for e = −1 (a
// lookup that found nothing).
func (f *Frozen) count(e int) int {
	if e < 0 {
		return 0
	}
	return int(f.refCount(f.ref(e)))
}

// refCount returns the posting count of the entry whose ref is r: 1 for
// an id, and for a list its head plus two (listCount), read as flatCount
// reads it.
func (f *Frozen) refCount(r uint32) uint32 {
	post := f.posts()
	c, off, again := flatCount(r, int64(f.maxID), post)
	if again {
		c = listCount(post, int(off))
	}
	return c
}

// flatCount reads the count of the entry whose ref is r without a branch
// on the entry's kind — whether an entry is a list is a coin toss no
// predictor learns where lists are common: every entry reads a byte of
// post, a one-id entry the first, and keeps it, plus two, where it is a
// list's head, its ref from split on. It returns the count so read, the
// list's offset (0 for an id) and whether listCount must read the count
// again: a head of several bytes, or a list ref past the arena in a
// section yet to be judged. post holds a byte at least (posts).
func flatCount(r uint32, split int64, post []byte) (c uint32, off uint, again bool) {
	list := uint32((split - 1 - int64(r)) >> 63) // all ones for a list's ref
	off = uint(r-uint32(split)) & uint(list)
	head := uint32(post[min(off, uint(len(post)-1))]) & list
	return head + 1 + list&1, off, head >= 0x80 || off >= uint(len(post))
}

// posts returns the posting arena as flatCount reads it: a byte of
// zero where the section has no list.
func (f *Frozen) posts() []byte {
	if len(f.postArena) == 0 {
		return noLists[:]
	}
	return f.postArena
}

// noLists is the posting arena of a section with no list, as flatCount
// reads it.
var noLists [1]byte

// listCount returns the count of the list at byte off of posting arena
// b: its head, varint(count − 2), plus two. A head of one byte, count <
// 130, is read in line. Before the content tier has judged the section a
// ref may point anywhere, so the read stays in the arena: off past it
// reads as a list of two, a head that runs off its end as the bytes it
// has.
func listCount(b []byte, off int) uint32 {
	if uint(off) >= uint(len(b)) {
		return 2
	}
	if c := b[off]; c < 0x80 {
		return uint32(c) + 2
	}
	return longHead(b, off) + 2
}

// longHead reads the varint at b[i:] as uvarint32 does, up to b's end.
func longHead(b []byte, i int) uint32 {
	var v uint32
	for shift := uint(0); i < len(b) && shift < 32; shift += 7 {
		c := b[i]
		i++
		v |= uint32(c&0x7f) << shift
		if c < 0x80 {
			break
		}
	}
	return v
}

// ref returns entry e's ref, read as a key is: the 4-byte little-endian
// load at its start, masked to its refLen bytes. The pad keeps the last
// ref's load inside the array.
func (f *Frozen) ref(e int) uint32 {
	rl := f.refLen
	return binary.LittleEndian.Uint32(f.refs[rl*e:rl*e+4]) & (^uint32(0) >> ((32 - 8*uint(rl)) & 31))
}

// PostingLenBytes returns the length of the posting list of the packed
// byte key without decoding it — the |I_s| term of the paper's cost
// model: one hash of the key, a walk of its bucket, one read of its ref
// and, for a list, of its head, no id decoded. GPH's threshold allocation sums it over a
// Hamming ball to get an exact candidate number — CN(qᵢ, e) is by
// definition Σ |I_s| over the radius-e ball of qᵢ.
//
//gph:hotpath
func (f *Frozen) PostingLenBytes(key []byte) int { return f.count(f.lookupBytes(key)) }

// PostingLenWord is PostingLenBytes for the key holding w, as
// lookupWord reads it: probeWord's count, one call a probe.
//
//gph:hotpath
func (f *Frozen) PostingLenWord(w uint64) int {
	_, n := f.probeWord(w)
	return n
}

// AppendPostingsBytes decodes the posting list for the packed byte
// key into dst and returns the extended slice (dst unchanged when the
// key is absent). Probing with a reused key buffer and a reused dst
// allocates nothing after warm-up — the form query hot paths use.
//
//gph:hotpath
func (f *Frozen) AppendPostingsBytes(key []byte, dst []int32) []int32 {
	e := f.lookupBytes(key)
	if e < 0 {
		return dst
	}
	return f.appendList(e, dst)
}

// uvarint32 reads the LEB128 varint at b[i:] and returns it with the
// index of the byte after it. Lists are validated before they are
// decoded (Validate), so the framing is not rechecked here.
func uvarint32(b []byte, i int) (v uint32, next int) {
	for shift := uint(0); ; shift += 7 {
		c := b[i]
		i++
		v |= uint32(c&0x7f) << shift
		if c < 0x80 {
			return v, i
		}
	}
}

// first reads entry e up to its first id: it returns the entry's count
// and that id — a one-id entry's ref — and, for a list, the posting arena
// and where the varint after the first id begins in it.
func (f *Frozen) first(e int) (n uint32, id int32, b []byte, i int) {
	r := f.ref(e)
	if r < uint32(f.maxID) {
		return 1, int32(r), nil, 0
	}
	b = f.postArena
	n, i = uvarint32(b, int(r-uint32(f.maxID)))
	v, i := uvarint32(b, i)
	return n + 2, int32(v), b, i
}

// appendList appends entry e's ids to dst.
func (f *Frozen) appendList(e int, dst []int32) []int32 {
	n, id, b, i := f.first(e)
	for {
		dst = append(dst, id)
		if n--; n == 0 {
			return dst
		}
		var v uint32
		v, i = uvarint32(b, i)
		id += int32(v)
	}
}

// IDSet is a set of posting ids under construction — a query's
// candidates: Seen holds one bit per id the index can hold, IDs the
// members in the order they were first decoded. The Collect methods
// decode posting lists straight into it, no list in between.
type IDSet struct {
	Seen []uint64
	IDs  []int32
}

// Add adds id to the set unless it is a member already, with no branch
// on which: the id is stored past the members either way and kept by
// lengthening IDs by mark's verdict. Whether an id was seen is a coin
// toss no predictor learns where a third of the postings repeat, as
// they do on a selective query's lists.
//
//gph:hotpath
func (s *IDSet) Add(id int32) {
	k := len(s.IDs)
	s.IDs = append(s.IDs, id)[:k+mark(s.Seen, id)]
}

// mark sets id's bit in seen and returns 1 if it was clear, 0 if it was
// set, with no branch.
func mark(seen []uint64, id int32) int {
	w, bit := uint32(id)/64, uint32(id)%64
	old := seen[w]
	seen[w] = old | 1<<bit
	return int(^old >> bit & 1)
}

// Reset empties the set, leaving Seen all zero: by clearing the words
// of the members when they are fewer than the words, else all of it.
// Whoever collected into the set resets it before reordering or
// dropping IDs — the bits cannot be found again afterwards.
func (s *IDSet) Reset() {
	if len(s.IDs) < len(s.Seen) {
		for _, id := range s.IDs {
			s.Seen[id/64] = 0
		}
	} else {
		clear(s.Seen)
	}
	s.IDs = s.IDs[:0]
}

// scanBlock is how many keys a key scan recovers before it compares
// them, and CollectWithin compares before it decodes the matches among
// them; the keys, marks and entry numbers fit stack arrays.
const scanBlock = 256

// keyPass carries a pass over a quotient-layout index's keys, a block
// of entries at a time in entry order, from one block to the next. A
// key is recovered from its hash, its bucket over its remainder, and an
// entry's bucket comes from the directory without a branch a bucket: a
// bucket's length is a coin toss no predictor learns, so a loop over
// each bucket's entries would mispredict at most of their ends. Instead
// every bucket that starts inside the block adds one bucket, in place
// over the remainder, at the entry it starts at (scatter), and a running
// sum over the block carries it to the entries after.
type keyPass struct {
	marks  [scanBlock]uint64
	starts int    // the bucket starts scattered so far: the next is bucket starts + 1's
	high   uint64 // the bucket of the block's entry before, in place over the remainder
}

// scatter marks the buckets that start in f's entries from base up to
// end, at most scanBlock of them, the block right after the one it marked
// before (the first from entry 0), and returns f's remainders from base's
// on, up to the last one's 8-byte load. Over a directory the content tier
// has yet to judge every write stays in bounds, wherever it lands.
func (f *Frozen) scatter(p *keyPass, base, end int) []byte {
	clear(p.marks[:end-base])
	step := uint64(1) << 1 << (f.dirShift & 63) // one bucket, above the remainder; 0 where there is one bucket
	if d := f.dir16; d != nil {
		p.starts = scatterStarts(d, p.starts, base, end, step, &p.marks)
	} else {
		p.starts = scatterStarts(f.dir32, p.starts, base, end, step, &p.marks)
	}
	return f.keyArena[f.remLen*base : f.remLen*end+8-f.remLen]
}

// scatterStarts is scatter over a directory of D offsets.
func scatterStarts[D dirOffset](dir []D, starts, base, end int, step uint64, marks *[scanBlock]uint64) int {
	b := starts + 1
	for ; b < len(dir); b++ {
		at := int(dir[b])
		if at >= end {
			break
		}
		marks[uint(at-base)%scanBlock] += step
	}
	return b - 1
}

// keyBlock returns the keys of f's entries from base up to end, as
// scatter takes a block: each the inverse hash of its bucket over its
// remainder.
func (f *Frozen) keyBlock(p *keyPass, base, end int, keys *[scanBlock]uint64) []uint64 {
	rems, out := f.scatter(p, base, end), keys[:end-base]
	keep, wmask := f.remMask(), wordMask(f.width)
	switch f.remLen {
	case 1:
		p.high = decodeStride[[1]byte](rems, keep, wmask, p.high, &p.marks, out)
	case 2:
		p.high = decodeStride[[2]byte](rems, keep, wmask, p.high, &p.marks, out)
	case 3:
		p.high = decodeStride[[3]byte](rems, keep, wmask, p.high, &p.marks, out)
	case 4:
		p.high = decodeStride[[4]byte](rems, keep, wmask, p.high, &p.marks, out)
	case 5:
		p.high = decodeStride[[5]byte](rems, keep, wmask, p.high, &p.marks, out)
	case 6:
		p.high = decodeStride[[6]byte](rems, keep, wmask, p.high, &p.marks, out)
	case 7:
		p.high = decodeStride[[7]byte](rems, keep, wmask, p.high, &p.marks, out)
	default:
		p.high = decodeStride[[8]byte](rems, keep, wmask, p.high, &p.marks, out)
	}
	return out
}

// remStride is the stride of a pass over a quotient-layout index's
// remainders, or over refs: an array as long as a remainder or a ref, so
// that each length gets its own copy of a loop, the stride a constant in
// it — at a stride held in a register the reslice keeps a bounds check.
type remStride interface {
	[1]byte | [2]byte | [3]byte | [4]byte | [5]byte | [6]byte | [7]byte | [8]byte
}

// decodeStride is keyBlock's loop over remainders of len(R) bytes: high,
// the bucket of the entry before, grows by each entry's mark, and the
// entry's key is the inverse hash of high over its remainder. It returns
// the bucket of the block's last entry.
func decodeStride[R remStride](rems []byte, keep, wmask, high uint64, marks *[scanBlock]uint64, keys []uint64) uint64 {
	var stride R
	for j := range keys {
		if len(rems) < 8 {
			break // never: scatter's slice ends at the last remainder's load
		}
		high += marks[uint(j)%scanBlock]
		keys[j] = (high | binary.LittleEndian.Uint64(rems)&keep) * hashInv & wmask
		rems = rems[len(stride):]
	}
	return high
}

// matchKeys notes in hits which of a block's keys lie within radius of q,
// and returns how many do. The count advances by a conditional move, not
// a branch: which keys match is the one thing about the loop no
// predictor can learn. Kept out of line: inlined into CollectWithin the
// loop's live values spill to the stack.
//
//go:noinline
func matchKeys(keys []uint64, q uint64, radius int, hits *[scanBlock]int32) int {
	k := uint(0)
	for j, key := range keys {
		hits[k%scanBlock] = int32(j)
		if bits.OnesCount64(key^q) <= radius {
			k++
		}
	}
	return int(k)
}

// collect adds entry e's posting list to the set under construction
// (its bitmap, and its ids as a slice that is returned extended) and
// returns the list's length, so that no caller reads the count again:
// the ids are read like appendList reads them, and each is stored past
// the members and kept by mark's verdict, as IDSet.Add keeps one — ids
// grows by the list's count once, before the first. A one-id entry is
// its ref, marked with no read of the posting arena; a list is read from
// its head.
func (f *Frozen) collect(e int, seen []uint64, ids []int32) ([]int32, int) {
	r := f.ref(e)
	k := len(ids)
	if r < uint32(f.maxID) {
		return append(ids, int32(r))[:k+mark(seen, int32(r))], 1
	}
	b := f.postArena
	n, i := uvarint32(b, int(r-uint32(f.maxID)))
	n += 2
	ids = slices.Grow(ids, int(n))[:k+int(n)]
	var id int32
	for range n {
		var v uint32
		v, i = uvarint32(b, i)
		id += int32(v)
		ids[k] = id
		k += mark(seen, id)
	}
	return ids[:k], int(n)
}

// CollectEntry is collect for a lookup's result — an entry number as
// LookupWords reports it, or −1: it adds the entry's posting list to set
// and returns the length of the list, 0 for e = −1.
//
//gph:hotpath
func (f *Frozen) CollectEntry(e int, set *IDSet) int {
	if e < 0 {
		return 0
	}
	var n int
	set.IDs, n = f.collect(e, set.Seen, set.IDs)
	return n
}

// CollectBytes adds the posting list of the packed byte key to set and
// returns its length (0 when the key is absent).
//
//gph:hotpath
func (f *Frozen) CollectBytes(key []byte, set *IDSet) int {
	return f.CollectEntry(f.lookupBytes(key), set)
}

// CollectWord is CollectBytes for the key holding w, as lookupWord
// reads it.
//
//gph:hotpath
func (f *Frozen) CollectWord(w uint64, set *IDSet) int {
	return f.CollectEntry(f.lookupWord(w), set)
}

// CollectWithin adds to set the posting list of every key within
// Hamming distance radius of q — the key read as len(q) little-endian
// words, a key of at most 8 bytes as one zero-extended word; keys of any
// other length match nothing — and returns the summed length of those
// lists. It is the union CollectBytes builds over the radius-ball of q,
// computed from the other side: one pass over the key arena or the
// bitmap, whatever the ball holds, entries taken in entry order so
// posting bytes are read front to back. Key bits the ball
// would never produce (beyond the partition width) count towards the
// distance like any other.
//
// The arena is read through encoding/binary, not cast to words: a
// borrowed file mapping need not be 8-aligned.
//
//gph:hotpath
func (f *Frozen) CollectWithin(q []uint64, radius int, set *IDSet) int64 {
	seen, ids := set.Seen, set.IDs
	var sum int64
	switch {
	case len(q) != 1 && (f.bitmap || f.quotient()):
		// Keys of one word match no query of another length.
	case f.bitmap:
		ids, sum = f.collectBitmap(q[0], radius, seen, ids)
	case f.quotient():
		// Every hashed build of a partition of up to 64 bits: the keys are
		// recovered a block at a time, then compared, one popcount an entry;
		// the matching entries of a block are noted without a branch and
		// decoded after it.
		var p keyPass
		var keys [scanBlock]uint64
		var hits [scanBlock]int32
		for base, n := 0, f.NumKeys(); base < n; base += scanBlock {
			for _, j := range hits[:matchKeys(f.keyBlock(&p, base, min(base+scanBlock, n), &keys), q[0], radius, &hits)] {
				var c int
				ids, c = f.collect(base+int(j), seen, ids)
				sum += int64(c)
			}
		}
	default:
		for e := range f.NumKeys() {
			if d, ok := f.distance(e, q); ok && d <= radius {
				var n int
				ids, n = f.collect(e, seen, ids)
				sum += int64(n)
			}
		}
	}
	set.IDs = ids
	return sum
}

// collectBitmap is CollectWithin over a bitmap, a word — 64 keys, equal
// but for their 6 low bits — at a time. A key k lies at distance
// |k/64 ⊕ q/64| + |k%64 ⊕ q%64| from q: the first term is the word's, so
// the keys of a word within radius are its set bits in the mask of low
// bits within what the word's term leaves of the radius. The masks are
// made once a call; an entry is the keys before its word plus the word's
// keys below it. Like histBitmap it stops before a word whose keys would
// run past the last entry, which only a section the content tier would
// refuse has.
func (f *Frozen) collectBitmap(q uint64, radius int, seen []uint64, ids []int32) ([]int32, int64) {
	var within [7]uint64 // within[r]: the j < 64 with |j ⊕ q%64| ≤ r
	for j := range uint64(64) {
		within[bits.OnesCount64(j^q%64)] |= 1 << j
	}
	for r := 1; r < len(within); r++ {
		within[r] |= within[r-1]
	}
	var sum int64
	bm, e := f.keyArena, 0
	for at := 0; at+8 <= len(bm); at += 8 {
		word := binary.LittleEndian.Uint64(bm[at:])
		if e+bits.OnesCount64(word) > f.NumKeys() {
			break
		}
		if r := radius - bits.OnesCount64(uint64(at/8)^q/64); r >= 0 {
			for m := word & within[min(r, 6)]; m != 0; m &= m - 1 {
				var n int
				ids, n = f.collect(e+bits.OnesCount64(word&(m&-m-1)), seen, ids)
				sum += int64(n)
			}
		}
		e += bits.OnesCount64(word)
	}
	return ids, sum
}

// distance returns the Hamming distance between q and key e of the byte
// layout read as len(q) little-endian words — the one way the key scans
// load a key wider than a word. ok is false for keys of any other length.
func (f *Frozen) distance(e int, q []uint64) (d int, ok bool) {
	if f.keyLen != 8*len(q) {
		return 0, false
	}
	key := f.key(e)
	for j, w := range q {
		d += bits.OnesCount64(binary.LittleEndian.Uint64(key[8*j:]) ^ w)
	}
	return d, true
}

// Histogram adds to hist[d] the posting count of every key at Hamming
// distance d from q, keys loaded as CollectWithin loads them. Its prefix
// sums are the exact candidate numbers CN(q, e) = Σ |I_s| over the
// radius-e ball — every radius from one pass over the keys or the
// bitmap's set bits, which is what threshold allocation falls back to
// when the ball outgrows the keys. hist must hold 64·len(q) + 1 entries,
// one for every distance the words can produce, not just those up to the
// partition width.
//
// The loop is branch-free on purpose: skipping distances beyond a
// threshold costs a data-dependent branch that mispredicts on every
// other key once the threshold nears half the width, several times the
// price of the add it saves.
//
//gph:hotpath
func (f *Frozen) Histogram(q []uint64, hist []int64) {
	switch {
	case len(q) != 1 && (f.bitmap || f.quotient()):
		// Keys of one word lie at no distance from a query of another length.
	case f.bitmap:
		switch f.refLen {
		case 1:
			histBitmap[[1]byte](f, q[0], hist)
		case 2:
			histBitmap[[2]byte](f, q[0], hist)
		case 3:
			histBitmap[[3]byte](f, q[0], hist)
		default:
			histBitmap[[4]byte](f, q[0], hist)
		}
	case f.quotient():
		var p keyPass
		var keys [scanBlock]uint64
		for base := 0; base < f.numKeys; base += scanBlock {
			end := min(base+scanBlock, f.numKeys)
			block, refs := f.keyBlock(&p, base, end, &keys), f.refs[f.refLen*base:]
			switch f.refLen {
			case 1:
				histQuotient[[1]byte](f, block, refs, q[0], hist)
			case 2:
				histQuotient[[2]byte](f, block, refs, q[0], hist)
			case 3:
				histQuotient[[3]byte](f, block, refs, q[0], hist)
			default:
				histQuotient[[4]byte](f, block, refs, q[0], hist)
			}
		}
	default:
		for e := range f.numKeys {
			if d, ok := f.distance(e, q); ok {
				hist[d] += int64(f.count(e))
			}
		}
	}
}

// histQuotient is Histogram's loop over a block of a quotient-layout
// index's keys and their refs, of len(R) bytes each: a ref load, a count
// read as flatCount reads it, a popcount and an add an entry.
//
//go:noinline
func histQuotient[R remStride](f *Frozen, keys []uint64, refs []byte, q uint64, hist []int64) {
	var stride R
	mask, split, post := ^uint32(0)>>(32-8*len(stride)), int64(f.maxID), f.posts()
	hist = hist[:65]
	for _, key := range keys {
		if len(refs) < 4 {
			break // never: the pad keeps the last ref's load inside the array
		}
		r := binary.LittleEndian.Uint32(refs) & mask
		refs = refs[len(stride):]
		c, off, again := flatCount(r, split, post)
		if again {
			c = listCount(post, int(off))
		}
		hist[bits.OnesCount64(key^q)] += int64(c)
	}
}

// histBitmap is Histogram over a bitmap whose refs are len(R) bytes each:
// a key's distance is its word's term, shared by the word's 64 keys, and
// its low bits'; its count is read as flatCount reads it. It stops
// before a word whose keys would run past the last entry, however many
// keys a bitmap its deferred validation has yet to reject holds.
//
//go:noinline
func histBitmap[R remStride](f *Frozen, q uint64, hist []int64) {
	var stride R
	mask, split, post := ^uint32(0)>>(32-8*len(stride)), int64(f.maxID), f.posts()
	bm, refs, e := f.keyArena, f.refs, 0
	for at := 0; at+8 <= len(bm); at += 8 {
		word := binary.LittleEndian.Uint64(bm[at:])
		if e += bits.OnesCount64(word); e > f.numKeys {
			return
		}
		h := hist[bits.OnesCount64(uint64(at/8)^q/64):]
		for ; word != 0; word &= word - 1 {
			if len(refs) < 4 {
				return // never: the pad keeps the last ref's load inside the array
			}
			r := binary.LittleEndian.Uint32(refs) & mask
			refs = refs[len(stride):]
			c, off, again := flatCount(r, split, post)
			if again {
				c = listCount(post, int(off))
			}
			h[bits.OnesCount64(uint64(bits.TrailingZeros64(word))^q%64)] += int64(c)
		}
	}
}

// ForEachEntry calls fn for every id of entry e's posting list — an
// entry number as LookupWords and Radius1 report it; −1 lists nothing —
// in ascending order until fn returns false, materializing nothing; it
// reports whether fn never did.
func (f *Frozen) ForEachEntry(e int, fn func(id int32) bool) bool {
	if e < 0 {
		return true
	}
	n, id, b, i := f.first(e)
	for {
		if !fn(id) {
			return false
		}
		if n--; n == 0 {
			return true
		}
		var v uint32
		v, i = uvarint32(b, i)
		id += int32(v)
	}
}

// EntryLen returns the length of entry e's posting list, 0 for e = −1.
func (f *Frozen) EntryLen(e int) int { return f.count(e) }

// Range calls fn for every (key, postings) pair in lexicographic key
// order until fn returns false. Both arguments are backed by reused
// buffers owned by the iteration — callers must copy what they keep.
// On an index whose deferred validation (see ReadPayload) fails, Range
// panics with that error rather than iterate corrupt arenas: iterating
// nothing would let a caller silently serialize an empty index. The
// arena holds the keys in hash order, so Range sorts the entry numbers
// first (a bitmap's are in ascending key order, which is not the order
// of their little-endian bytes either): it is for tests and tools, not
// queries.
func (f *Frozen) Range(fn func(key []byte, ids []int32) bool) {
	if err := f.Validate(); err != nil {
		panic(err)
	}
	keys, kl := f.keyBytes(), f.keyLen
	key := func(e int) []byte { return keys[e*kl : (e+1)*kl] }
	order := make([]int, f.NumKeys())
	for e := range order {
		order[e] = e
	}
	slices.SortFunc(order, func(a, b int) int { return bytes.Compare(key(a), key(b)) })
	var ids []int32
	for _, e := range order {
		ids = f.appendList(e, ids[:0])
		if !fn(key(e), ids) {
			return
		}
	}
}

// keyBytes returns the keys in entry order, keyLen bytes each: the byte
// layout's arena, the quotient layout's keys recovered from their
// buckets and remainders, or the bitmap's set bits, written out.
func (f *Frozen) keyBytes() []byte {
	if !f.bitmap && !f.quotient() {
		return f.keyArena
	}
	keys := make([]byte, 0, f.keyLen*f.NumKeys()+8)
	add := func(k uint64) { keys = binary.LittleEndian.AppendUint64(keys, k)[:len(keys)+f.keyLen] }
	if f.quotient() {
		var p keyPass
		var block [scanBlock]uint64
		for base, n := 0, f.NumKeys(); base < n; base += scanBlock {
			for _, k := range f.keyBlock(&p, base, min(base+scanBlock, n), &block) {
				add(k)
			}
		}
		return keys
	}
	for at := 0; at+8 <= len(f.keyArena); at += 8 {
		for word := binary.LittleEndian.Uint64(f.keyArena[at:]); word != 0; word &= word - 1 {
			add(uint64(8*at + bits.TrailingZeros64(word)))
		}
	}
	return keys
}

// frozenStructBytes is the fixed overhead SizeBytes charges for the
// Frozen struct itself, every field of it: the slice headers, the
// scalars, the validation state.
const frozenStructBytes = int64(unsafe.Sizeof(Frozen{}))

// SizeBytes reports the exact resident size of the frozen index: the
// stored keys and posting arenas (the bitmap in place of the keys), the
// per-entry refs, the bucket directory or rank array, and the struct.
// Every term is the length of a real backing array, so Fig. 6 reports a
// property of the index rather than a guess, and heap- and mmap-opened
// copies of one index always agree.
func (f *Frozen) SizeBytes() int64 {
	return int64(len(f.keyArena)) + int64(len(f.postArena)) + f.entryBytes() +
		f.dirBytes() + frozenStructBytes
}

// dirBytes returns the bytes of what a lookup reads to find an entry:
// the rank array of a bitmap, or the directory of the keys.
func (f *Frozen) dirBytes() int64 {
	if f.bitmap {
		return 4 * int64(rankLen(len(f.keyArena)))
	}
	return directoryBytes(f.NumKeys())
}

// entryBytes returns the bytes of the per-entry array: the refs with
// their pad.
func (f *Frozen) entryBytes() int64 { return int64(len(f.refs)) }

// WriteTo serializes the frozen index as its arrays, verbatim: the
// stored keys need no offsets, since they have one length, which follows
// from the header's width and key count, and the directory or rank array
// is written beside them.
// Output is deterministic for a given logical index.
//
// The section is split in two halves a container may separate: a
// scalar header carrying every length a reader needs (the width, key and
// ref widths, from which the refs' and the directory's lengths follow
// with the key count, and the arena byte lengths), and a raw payload
// with alignment padding before the directory. A borrow-mode reader aliases the
// whole payload from the header's lengths without reading a byte of it,
// so a container that groups all its sections' headers together (as the
// GPH index does) opens a cold mapping by faulting the header pages
// alone.
func (f *Frozen) WriteTo(bw *binio.Writer) {
	f.WriteHeaderTo(bw)
	f.WritePayloadTo(bw)
}

// WriteHeaderTo writes the section's scalar header: key count,
// posting total, width in bits, key and ref widths, both arena byte
// lengths (the key arena's the bitmap's in that layout) and the
// layout, 1 for the bitmap and 0 for the hash — everything
// ReadFrozenHeader needs to alias the payload without reading it.
func (f *Frozen) WriteHeaderTo(bw *binio.Writer) {
	bw.Int(f.NumKeys())
	bw.Int64(f.postings)
	bw.Int(f.width)
	bw.Int(f.keyLen)
	bw.Int(f.refLen)
	bw.Int(len(f.keyArena))
	bw.Int(len(f.postArena))
	layout := 0
	if f.bitmap {
		layout = 1
	}
	bw.Int(layout)
}

// WritePayloadTo writes the arenas and the refs raw, in the order
// FrozenHeader.ReadPayload consumes them: the refs right after the
// posting arena, then, after alignment padding, the directory or rank
// array.
func (f *Frozen) WritePayloadTo(bw *binio.Writer) {
	bw.Bytes(f.keyArena)
	bw.Bytes(f.postArena)
	bw.Bytes(f.refs)
	bw.Align8()
	if f.dir16 != nil {
		bw.Uint16sRaw(f.dir16)
	} else {
		bw.Uint32sRaw(f.dir32)
	}
}

// ReadFrozen reads an index written by WriteTo, validating the contents
// (lists chained end to end over the arena, varint framing, that every
// id lies in [0, maxID), the posting total, the directory and the keys'
// order in it or the bitmap and its rank array, refs no wider than their
// largest needs) before returning.
// The arrays are adopted directly from the decoded buffers — loading is
// O(bytes).
func ReadFrozen(br *binio.Reader, maxID int32) (*Frozen, error) {
	h, err := ReadFrozenHeader(br, maxID)
	if err != nil {
		return nil, err
	}
	f, err := h.ReadPayload(br)
	if err != nil {
		return nil, err
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// FrozenHeader is the parsed scalar header of one section: everything
// ReadPayload needs to alias the payload arrays without reading them.
type FrozenHeader struct {
	numKeys, keyLen, width    int
	refLen                    int
	postings                  int64
	keyArenaLen, postArenaLen int
	bitmap                    bool
	maxID                     int32
}

// maxWidth bounds the width a section header may give: wider than any
// key a partition, a deletion variant or a band signature of a
// collection this repository reads packs to.
const maxWidth = 1 << 24

// ReadFrozenHeader parses and sanity-checks one section's scalar
// header as written by WriteHeaderTo, for a collection of maxID ids,
// which may not be negative. A container may place the matching payload
// much later in the stream (the GPH index groups every section's header
// before any payload, so a cold mapped open faults only the contiguous
// header pages); attach it with ReadPayload when the stream reaches it.
func ReadFrozenHeader(br *binio.Reader, maxID int32) (FrozenHeader, error) {
	h := FrozenHeader{maxID: maxID}
	h.numKeys = br.Int()
	h.postings = br.Int64()
	h.width = br.Int()
	h.keyLen = br.Int()
	h.refLen = br.Int()
	h.keyArenaLen = br.Int()
	h.postArenaLen = br.Int()
	layout := br.Int()
	h.bitmap = layout == 1
	if err := br.Err(); err != nil {
		return h, fmt.Errorf("invindex: reading frozen header: %w", err)
	}
	if maxID < 0 {
		return h, fmt.Errorf("invindex: a section read for %d ids", maxID)
	}
	if h.numKeys < 0 || h.numKeys > binio.MaxSliceLen {
		return h, fmt.Errorf("invindex: implausible key count %d", h.numKeys)
	}
	if h.postings < 0 {
		return h, fmt.Errorf("invindex: negative posting count %d", h.postings)
	}
	if h.width < 0 || h.width > maxWidth {
		return h, fmt.Errorf("invindex: implausible key width %d", h.width)
	}
	if want := KeyLen(h.width); h.keyLen != want {
		return h, fmt.Errorf("invindex: keys of %d bytes in a section of %d-bit keys, which pack to %d", h.keyLen, h.width, want)
	}
	if h.numKeys > 0 && int64(h.keyLen)*int64(h.numKeys) >= arenaLimit {
		return h, fmt.Errorf("invindex: implausible key length %d", h.keyLen)
	}
	if quotientWidth(h.width) && h.numKeys > 1<<min(h.width, 62) {
		return h, fmt.Errorf("invindex: %d keys of %d bits", h.numKeys, h.width)
	}
	if h.refLen < 1 || h.refLen > 4 {
		return h, fmt.Errorf("invindex: implausible ref length %d", h.refLen)
	}
	if h.numKeys == 0 && h.refLen != 1 {
		return h, fmt.Errorf("invindex: an index of no keys has 1-byte refs, not %d-byte ones", h.refLen)
	}
	if h.keyArenaLen < 0 || int64(h.keyArenaLen) >= arenaLimit {
		return h, fmt.Errorf("invindex: implausible key arena length %d", h.keyArenaLen)
	}
	if h.postArenaLen < 0 || int64(h.postArenaLen) >= arenaLimit {
		return h, fmt.Errorf("invindex: implausible posting arena length %d", h.postArenaLen)
	}
	switch {
	case layout != 0 && layout != 1:
		return h, fmt.Errorf("invindex: unknown key layout %d", layout)
	case h.bitmap && (h.width < 1 || h.width > maxBitmapWidth):
		return h, fmt.Errorf("invindex: a bitmap of %d-bit keys", h.width)
	case h.bitmap && h.keyArenaLen != bitmapBytes(h.width):
		return h, fmt.Errorf("invindex: a bitmap of %d bytes, a %d-bit partition's takes %d", h.keyArenaLen, h.width, bitmapBytes(h.width))
	case h.bitmap:
		return h, nil
	}
	if rl := h.remLen(); h.keyArenaLen != rl*h.numKeys+keyPad(rl, h.numKeys) {
		return h, fmt.Errorf("invindex: key arena holds %d bytes, %d keys × %d and the pad need %d",
			h.keyArenaLen, h.numKeys, rl, rl*h.numKeys+keyPad(rl, h.numKeys))
	}
	return h, nil
}

// remLen is the bytes a stored key of a hashed section takes: a
// remainder's in the quotient layout, the key's own otherwise.
func (h FrozenHeader) remLen() int {
	if quotientWidth(h.width) {
		return remBytes(h.width, h.numKeys)
	}
	return h.keyLen
}

// ReadPayload consumes the section's payload written by
// WritePayloadTo and returns the frozen index with only the O(1) half
// of validation done: header sanity and array lengths. Every array is
// sized from the header, so in borrow mode nothing here reads a payload
// page — arrays are aliased, alignment padding is skipped by offset —
// and an index borrowed off a file mapping opens having touched header
// bytes alone; a truncated file still fails here, at open, because the
// binio reads are bounds-checked. Everything page-touching — count
// totals, the lists' chain, varint framing, id ranges, the directory and
// key order, the rank array — is deferred to Validate, which callers
// MUST run before trusting an answer: until Validate passes, every
// lookup, count and histogram stays in bounds, but a lookup finds what
// it finds; a list is decoded only from a section Validate has passed.
func (h FrozenHeader) ReadPayload(br *binio.Reader) (*Frozen, error) {
	f := &Frozen{keyLen: h.keyLen, width: h.width, refLen: h.refLen, numKeys: h.numKeys, postings: h.postings, bitmap: h.bitmap, maxID: h.maxID}
	f.keyArena = br.BytesRaw(h.keyArenaLen, "frozen key arena")
	f.postArena = br.BytesRaw(h.postArenaLen, "frozen posting arena")
	f.refs = br.BytesRaw(h.refLen*h.numKeys+refPad(h.refLen, h.numKeys), "frozen posting refs")
	br.Align8()
	switch offsets := 1<<bucketBits(h.numKeys) + 1; {
	case h.bitmap:
		f.dir32 = br.Uint32sRaw(rankLen(h.keyArenaLen), "frozen rank array")
	case h.numKeys <= maxNarrowKeys:
		f.dir16 = br.Uint16sRaw(offsets, "frozen bucket directory")
	default:
		f.dir32 = br.Uint32sRaw(offsets, "frozen bucket directory")
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("invindex: reading frozen arenas: %w", err)
	}
	if !h.bitmap {
		f.remLen = h.remLen()
		f.dirShift = dirShift(h.numKeys)
		if f.quotient() {
			f.dirShift = uint(h.width - 1 - bucketBits(h.numKeys))
		}
	}
	return f, nil
}

// Validate runs the deferred content half of loading: every list
// decodes cleanly by its head's count (varint framing, ids in
// [0, maxID)) from where the list before it ends, the first at the
// arena's start and the last ending it; the entries hold the header's
// posting total; the pads are zero, and refs are no wider than the
// largest needs, so one index has one file; and the keys are where the
// lookups look for them (checkKeys). A ref below maxID is an id by what
// it is, so a one-id entry has nothing to judge. It reads every array end
// to end — over a mapping this is the pass that faults the pages in,
// which is why ReadPayload leaves it to the caller's first query rather
// than open. Idempotent and safe for concurrent use; every call returns
// the first run's verdict.
func (f *Frozen) Validate() error {
	f.deepOnce.Do(func() { f.deepErr = f.validateContent() })
	return f.deepErr
}

func (f *Frozen) validateContent() error {
	// The pads after stored keys shorter than a word and after refs
	// shorter than four bytes (empty otherwise) are zero, as FreezeRows
	// writes them: one file per index. A bitmap's pad is checkKeys' to
	// judge. The length checks at read time keep every walk below in
	// bounds.
	if !f.bitmap {
		for i, b := range f.keyArena[f.remLen*f.numKeys:] {
			if b != 0 {
				return fmt.Errorf("invindex: key arena pad byte %d is %#x, not 0", i, b)
			}
		}
	}
	for i, b := range f.refs[f.refLen*f.numKeys:] {
		if b != 0 {
			return fmt.Errorf("invindex: ref pad byte %d is %#x, not 0", i, b)
		}
	}
	if err := f.checkKeys(); err != nil {
		return err
	}
	s, err := f.checkLists()
	if err != nil {
		return err
	}
	if total := int64(f.numKeys-s.lists) + s.postings; total != f.postings {
		return fmt.Errorf("invindex: frozen entries hold %d postings, header says %d", total, f.postings)
	}
	// A ref stored wider than it needs reads the same, so only the width
	// tells two files of one index apart.
	if want := refLenFor(s.top); f.refLen != want {
		return fmt.Errorf("invindex: refs are %d bytes wide, and the largest, %d, needs %d", f.refLen, s.top, want)
	}
	return nil
}

// checkKeys is the content tier's judge of the keys: what a lookup reads
// to find an entry agrees with what a key scan reads. A bitmap holds a
// key an entry, within its width, under a rank array that counts its
// keys. A hashed section's directory starts at 0, ascends and ends at
// the key count; in the quotient layout each remainder has no bit at or
// past the remainder's width and the remainders of a bucket strictly
// ascend, so every key is one and lies where its hash says; in the byte
// layout each key hashes into the bucket the directory puts it in, the
// keys of a bucket strictly ascend in hash order, bytes breaking a tie,
// and no key has a bit past the width.
func (f *Frozen) checkKeys() error {
	if f.bitmap {
		return f.checkBitmap()
	}
	if arm := kernelArm(); arm != cpu.KernelPortable && f.quotient() && f.keysAccepted(arm == cpu.KernelGo) {
		return nil
	}
	var err error
	if f.dir16 != nil {
		err = checkDir(f.dir16, f.NumKeys())
	} else {
		err = checkDir(f.dir32, f.NumKeys())
	}
	switch {
	case err != nil:
		return err
	case f.quotient():
		return f.checkRemainders()
	}
	return f.checkByteKeys()
}

// checkDir judges a directory of n keys: 0 first, ascending, n last.
func checkDir[D dirOffset](dir []D, n int) error {
	if dir[0] != 0 {
		return fmt.Errorf("invindex: bucket directory offset 0 is %d, not 0", dir[0])
	}
	for b := 1; b < len(dir); b++ {
		if dir[b] < dir[b-1] {
			return fmt.Errorf("invindex: bucket directory offset %d is %d, below offset %d's %d", b, dir[b], b-1, dir[b-1])
		}
	}
	if last := int(dir[len(dir)-1]); last != n {
		return fmt.Errorf("invindex: bucket directory ends at %d, the section holds %d keys", last, n)
	}
	return nil
}

// checkRemainders is checkKeys' pass over the quotient layout's stored
// keys, under a directory checkDir has passed: no remainder bit at or
// past the remainder's width, judged from the remainders' bytes ored
// together, then the hashes — bucket over remainder, recovered a block
// at a time as the key scans recover them (keyPass) — strictly
// ascending, which, with every remainder below its width, is each
// bucket's remainders strictly ascending: every stored key is one key
// and lies where its hash says.
func (f *Frozen) checkRemainders() error {
	n, rl, keep := f.NumKeys(), f.remLen, f.remMask()
	var p keyPass
	var seen, prev uint64
	disorder, bucketOf := n, uint64(0)
	for base := 0; base < n; base += scanBlock {
		end := min(base+scanBlock, n)
		rems, high, before := f.scatter(&p, base, end), p.high, prev
		var bad int
		bad, p.high, prev, seen = orderRems(rems, rl, keep, p.high, prev, &p.marks, seen)
		// Entry 0 follows no key: its hash against 0 is no descent.
		if bad > 0 && disorder == n {
			for j := range end - base {
				high += p.marks[j]
				h := high | binary.LittleEndian.Uint64(rems[rl*j:])&keep
				if h <= before && base+j > 0 && disorder == n {
					disorder, bucketOf = base+j, h>>(f.dirShift+1)
				}
				before = h
			}
		}
	}
	if seen&^keep != 0 {
		for e := range n {
			if binary.LittleEndian.Uint64(f.keyArena[rl*e:])&^keep<<(64-8*uint(rl)) != 0 {
				return fmt.Errorf("invindex: key %d's remainder has bits set at or past bit %d", e, f.dirShift+1)
			}
		}
	}
	if disorder < n {
		return fmt.Errorf("invindex: frozen keys not in strict hash order at entry %d, in bucket %d", disorder, bucketOf)
	}
	return nil
}

// orderRems is checkRemainders' loop over a block's remainders of rl
// bytes, rems as scatter returns them: it returns how many of the block's
// hashes are not above the one before (the first against prev, the hash
// before the block), the last entry's bucket and hash, and seen with the
// remainders' bytes ored in. Kept out of line with a copy a remainder
// length, as matchRems is.
//
//go:noinline
func orderRems(rems []byte, rl int, keep, high, prev uint64, marks *[scanBlock]uint64, seen uint64) (int, uint64, uint64, uint64) {
	switch rl {
	case 1:
		return orderStride[[1]byte](rems, keep, high, prev, marks, seen)
	case 2:
		return orderStride[[2]byte](rems, keep, high, prev, marks, seen)
	case 3:
		return orderStride[[3]byte](rems, keep, high, prev, marks, seen)
	case 4:
		return orderStride[[4]byte](rems, keep, high, prev, marks, seen)
	case 5:
		return orderStride[[5]byte](rems, keep, high, prev, marks, seen)
	case 6:
		return orderStride[[6]byte](rems, keep, high, prev, marks, seen)
	case 7:
		return orderStride[[7]byte](rems, keep, high, prev, marks, seen)
	}
	return orderStride[[8]byte](rems, keep, high, prev, marks, seen)
}

// orderStride is orderRems' loop over remainders of len(R) bytes.
func orderStride[R remStride](rems []byte, keep, high, prev uint64, marks *[scanBlock]uint64, seen uint64) (int, uint64, uint64, uint64) {
	var stride R
	bytesMask := ^uint64(0) >> (64 - 8*uint(len(stride)))
	bad := 0
	for j := uint(0); len(rems) >= 8; j++ {
		high += marks[j%scanBlock]
		r := binary.LittleEndian.Uint64(rems) & bytesMask
		seen |= r
		h := high | r&keep
		if h <= prev {
			bad++
		}
		prev = h
		rems = rems[len(stride):]
	}
	return bad, high, prev, seen
}

// checkByteKeys is checkKeys' pass over the byte layout's keys, under a
// directory checkDir has passed, bucket by bucket.
func (f *Frozen) checkByteKeys() error {
	for b := range 1 << bucketBits(f.NumKeys()) {
		lo, hi := f.span(uint64(b) << 1 << f.dirShift)
		var prev uint64
		for e := lo; e < hi; e++ {
			h := hashKey(f.key(e))
			if got := bucket(h, f.dirShift); got != uint64(b) {
				return fmt.Errorf("invindex: frozen key %d hashes to bucket %d, the directory puts it in bucket %d", e, got, b)
			}
			if e > lo && (h < prev || h == prev && bytes.Compare(f.key(e-1), f.key(e)) >= 0) {
				return fmt.Errorf("invindex: frozen keys not in strict hash order at entry %d, in bucket %d", e, b)
			}
			prev = h
		}
	}
	// A partition wider than a word keeps whole words: the last one's bits
	// past the width are zero. A key of no bits has none to check.
	if tail := f.width % 64; tail != 0 && f.keyLen > 0 {
		for e := range f.NumKeys() {
			if binary.LittleEndian.Uint64(f.key(e)[f.keyLen-8:])>>tail != 0 {
				return fmt.Errorf("invindex: key %d has bits set beyond dimension %d", e, f.width)
			}
		}
	}
	return nil
}

// checkBitmap is checkKeys for the bitmap layout: as many keys as
// entries, the rank array counting them, and no key past the width — in
// a bitmap narrower than a word, nothing past 2^width bits but a zero
// pad.
func (f *Frozen) checkBitmap() error {
	bm, rank := f.keyArena, f.dir32
	if keys := bitmapKeys(bm); keys != f.NumKeys() {
		return fmt.Errorf("invindex: the bitmap holds %d keys, the section %d entries", keys, f.NumKeys())
	}
	var below uint32
	for b, r := range rank {
		if r != below {
			return fmt.Errorf("invindex: rank entry %d is %d, the bitmap holds %d keys below bit %d", b, r, below, 512*b)
		}
		below += blockKeys(bm, b)
	}
	if f.width >= 6 {
		return nil
	}
	past := binary.LittleEndian.Uint64(bm) >> (1 << f.width)
	if past == 0 {
		return nil
	}
	k := 1<<f.width + bits.TrailingZeros64(past)
	if held := (1<<f.width + 7) / 8; k/8 >= held {
		return fmt.Errorf("invindex: bitmap pad byte %d is %#x, not 0", k/8-held, bm[k/8])
	}
	return fmt.Errorf("invindex: bitmap key %d has bits set beyond dimension %d", k, f.width)
}

// listScan is what the pass over an index's refs finds.
type listScan struct {
	lists    int    // entries of two ids or more
	postings int64  // the ids they list
	top      uint32 // the largest ref: the last list's, or with no list the largest id's
}

// checkLists is the postings pass over f's refs, in entry order, and
// the check that the lists end where the arena does. The lists among a
// block of entries are noted without a branch on an entry's kind
// (noteBlock); each is then judged from the words that hold it, up to
// the next list's offset; one the words cannot clear — a corrupt list,
// one off the chain, or one whose word would reach past the arena's end
// — goes to checkList, which walks it a byte at a time and says what is
// wrong with it or where it ends. On the kernels' arms a block's lists
// are judged on the lists kernel first (judgeBlock), and only the ones it
// does not clear go to judgeList.
func (f *Frozen) checkLists() (s listScan, err error) {
	split, idLimit := uint32(f.maxID), uint64(f.maxID)
	// Where the next list starts; the list whose end is still to find, and
	// its offset.
	pos, open, lo := 0, -1, 0
	var lists [scanBlock]int32
	kp := f.newRefPass(kernelArm())
	var lp listPass
	for base := 0; base < f.numKeys; base += scanBlock {
		k := f.noteBlock(&kp, base, &lists, &s.top)
		if kp.lane > 0 && k > 0 {
			var c int64
			if pos, c, open, lo, err = f.judgeBlock(&kp, &lp, base, lists[:k], pos, open, lo); err != nil {
				return s, err
			}
			s.postings, s.lists = s.postings+c, s.lists+k
			continue
		}
		for _, j := range lists[:k] {
			e := base + int(j)
			off := int(f.ref(e) - split)
			if open >= 0 {
				var c int64
				if pos, c, err = f.judgeList(open, lo, pos, off, idLimit); err != nil {
					return s, err
				}
				s.postings += c
			}
			open, lo = e, off
		}
		s.lists += k
	}
	s.top = max(s.top, kp.most())
	if open >= 0 {
		var c int64
		if pos, c, err = f.judgeList(open, lo, pos, len(f.postArena), idLimit); err != nil {
			return s, err
		}
		s.postings, s.top = s.postings+c, split+uint32(lo)
	}
	if pos != len(f.postArena) {
		return s, fmt.Errorf("invindex: frozen lists end at byte %d of the %d-byte posting arena", pos, len(f.postArena))
	}
	return s, nil
}

// noteBlock notes in lists which of the entries from base on, a block
// of scanBlock or the rest, are lists, and returns how many are: on the
// refs kernel where kp holds it, else with noteLists. top grows to the
// largest one-id ref noteLists or the kernel's tail meets.
func (f *Frozen) noteBlock(kp *refPass, base int, lists *[scanBlock]int32, top *uint32) int {
	refs, n, split := f.refs[f.refLen*base:], min(scanBlock, f.numKeys-base), int64(f.maxID)
	switch {
	case kp.lane > 0:
		return f.kernelLists(kp, refs, n, lists, top)
	case f.refLen == 1:
		return noteLists[[1]byte](refs, n, split, lists, top)
	case f.refLen == 2:
		return noteLists[[2]byte](refs, n, split, lists, top)
	case f.refLen == 3:
		return noteLists[[3]byte](refs, n, split, lists, top)
	}
	return noteLists[[4]byte](refs, n, split, lists, top)
}

// noteLists notes in lists which of the n entries whose refs, len(R)
// bytes each, lead refs are lists, and returns how many are; top grows to
// the largest one-id ref among them. The count advances by a conditional
// move, not a branch, as matchKeys' does.
func noteLists[R remStride](refs []byte, n int, split int64, lists *[scanBlock]int32, top *uint32) int {
	var stride R
	mask, most, k := ^uint32(0)>>(32-8*len(stride)), *top, uint(0)
	for j := range n {
		if len(refs) < 4 {
			break // never: the pad keeps the last ref's load inside the array
		}
		r := binary.LittleEndian.Uint32(refs) & mask
		refs = refs[len(stride):]
		list := uint32((split - 1 - int64(r)) >> 63) // all ones for a list's ref
		most = max(most, r&^list)
		lists[k%scanBlock] = int32(j)
		k += uint(list & 1)
	}
	*top = most
	return int(k)
}

// judgeList checks the list of entry e, which starts at lo and must
// start at pos, from the words that hold it when it ends at hi: its head,
// then as many ids as the head says. It returns where the list ends and
// its count, from checkList when the words cannot clear it.
func (f *Frozen) judgeList(e, lo, pos, hi int, idLimit uint64) (int, int64, error) {
	arena := f.postArena
	if lo == pos && lo < hi && hi <= len(arena) {
		// A head of one byte, most of them, is read in line.
		head, i, err := uint64(arena[lo]), lo+1, error(nil)
		if head >= 0x80 {
			head, i, err = readVarint(arena[:hi], lo)
		}
		// A list holds at least a byte an id.
		if n := hi - i; err == nil && head+2 <= uint64(n) {
			count, ok := uint32(head)+2, false
			switch {
			case n > 8:
				ok = varintsOK(arena[i:hi], count, idLimit)
			case i+8 <= len(arena):
				ok = varintWordOK(binary.LittleEndian.Uint64(arena[i:]), uint(n), count, idLimit)
			}
			if ok {
				return hi, int64(count), nil
			}
		}
	}
	return f.checkList(e, pos)
}

// contBits is the continuation bit of every byte of a word.
const contBits = 0x8080808080808080

// varintWordOK reports whether the n ∈ [1, 8] low bytes of w are a list
// checkList accepts with count ids: count terminators, the last byte
// one of them, no five continuation bytes in a row, and ids below
// idLimit — the last id is the largest, and it is the sum of the list's
// deltas. A false is only "not from this word": checkList decides.
func varintWordOK(w uint64, n uint, count uint32, idLimit uint64) bool {
	keep := ^uint64(0) >> ((64 - 8*n) & 63)
	w &= keep
	ends := (w & contBits) ^ (contBits & keep)
	sum, runs := varintSum(w, 0)
	return ends>>((8*n-1)&63) == 1 && bits.OnesCount64(ends) == int(count) && runs == 0 && sum < idLimit
}

// varintsOK is varintWordOK for a list of more than 8 bytes, walked a
// word at a time. The bytes after the last whole word are read from the
// word that ends the list, shifted down: no load leaves the list.
func varintsOK(list []byte, count uint32, idLimit uint64) bool {
	var sum, runs, cont uint64
	ends := 0
	b := list
	for ; len(b) >= 8; b = b[8:] {
		w := binary.LittleEndian.Uint64(b)
		s, r := varintSum(w, cont)
		cont = w & contBits
		sum, runs, ends = sum+s, runs|r, ends+bits.OnesCount64(cont^contBits)
	}
	if t := uint(len(b)); t > 0 {
		keep := ^uint64(0) >> (64 - 8*t)
		w := binary.LittleEndian.Uint64(list[len(list)-8:]) >> (64 - 8*t)
		s, r := varintSum(w, cont)
		cont = w & contBits
		sum, runs, ends = sum+s, runs|r, ends+bits.OnesCount64(cont^(contBits&keep))
	}
	return list[len(list)-1] < 0x80 && ends == int(count) && runs == 0 && sum < idLimit
}

// varintSum reads w as varint bytes that follow a word whose
// continuation bits are prev. It returns the sum of the values the bytes
// carry — a byte's payload counts 128^place, its place the number of
// continuation bytes right before it, so a value split across two words
// is summed in parts — and the continuation bytes of w that are the
// fifth of a run, 0 for none. Places past four are never needed: a
// fifth continuation byte fails the list whatever the sum.
func varintSum(w, prev uint64) (sum, runs uint64) {
	cont := w & contBits
	at1 := cont<<8 | prev>>56 // bytes at place ≥ 1, flagged in their top bit
	at2 := at1 & (cont<<16 | prev>>48)
	at3 := at2 & (cont<<24 | prev>>40)
	pay := w &^ contBits
	// 128^p = 1 + 127·(1 + 128 + … + 128^(p−1)): a byte at place p counts
	// once, then 127·128^(k−1) for each k ≤ p.
	sum = byteSum(pay) + 127*byteSum(pay&low7(at1)) + 127*128*byteSum(pay&low7(at2))
	if at3 != 0 {
		// A delta of 2²¹ or more: a branch almost never taken below
		// 2²¹ rows.
		at4 := at3 & (cont<<32 | prev>>32)
		sum += 127 * 128 * 128 * (byteSum(pay&low7(at3)) + 128*byteSum(pay&low7(at4)))
		runs = at4 & cont
	}
	return sum, runs
}

// low7 widens a flag in a byte's top bit to the byte's seven low bits.
func low7(flags uint64) uint64 { return flags - flags>>7 }

// byteSum adds up the bytes of x, each below 128.
func byteSum(x uint64) uint64 {
	x = (x + x>>8) & 0x00ff00ff00ff00ff
	return x * 0x0001000100010001 >> 48
}

// checkList walks entry e's list a byte at a time: it must start at pos,
// where the lists before it end, and hold as many ids as its head says,
// framed and in range. It returns where the list ends and its count.
func (f *Frozen) checkList(e, pos int) (int, int64, error) {
	if off := int(f.ref(e) - uint32(f.maxID)); off != pos {
		return 0, 0, fmt.Errorf("invindex: frozen entry %d: list starts at byte %d, the lists before it end at %d", e, off, pos)
	}
	head, i, err := readVarint(f.postArena, pos)
	if err != nil {
		return 0, 0, fmt.Errorf("invindex: frozen entry %d: list head: %w", e, err)
	}
	end, err := validateList(f.postArena, i, head+2, f.maxID)
	if err != nil {
		return 0, 0, fmt.Errorf("invindex: frozen entry %d: %w", e, err)
	}
	return end, int64(head + 2), nil
}

// bitmapKeys returns the keys bitmap bm holds, its set bits.
func bitmapKeys(bm []byte) int {
	keys := 0
	for at := 0; at+8 <= len(bm); at += 8 {
		keys += bits.OnesCount64(binary.LittleEndian.Uint64(bm[at:]))
	}
	return keys
}

// validateList walks the count delta-varints at b[i:], checking framing
// and that every id lies in [0, maxID); it returns the index of the byte
// after the last. Each id takes a byte at least, so a count past the
// bytes ends at the arena's end.
func validateList(b []byte, i int, count uint64, maxID int32) (int, error) {
	var prev int64
	for ; count > 0; count-- {
		v, next, err := readVarint(b, i)
		if err != nil {
			return 0, err
		}
		i, prev = next, prev+int64(v)
		if prev >= int64(maxID) {
			return 0, fmt.Errorf("posting id %d outside [0,%d)", prev, maxID)
		}
	}
	return i, nil
}

// readVarint reads the varint at b[i:] a byte at a time and returns it
// with the index of the byte after it. Five bytes carry 35 bits, and a
// value past 32 of them fails whatever range it is checked against: what
// is checked here is the framing — a varint ending before b does, in at
// most five bytes.
func readVarint(b []byte, i int) (v uint64, next int, err error) {
	for shift := uint(0); ; shift += 7 {
		if shift > 28 {
			return 0, 0, fmt.Errorf("varint longer than 5 bytes")
		}
		if i >= len(b) {
			return 0, 0, fmt.Errorf("truncated varint")
		}
		c := b[i]
		i++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, i, nil
		}
	}
}

// ArenaBreakdown reports the byte size of each backing component (key
// arena with its pad or bitmap, postings arena, entries — the refs with
// their pad — and bucket directory or rank array):
// SizeBytes less the struct. internal/core's golden test pins a GPH
// index's footprint by component with it.
func (f *Frozen) ArenaBreakdown() (keyBytes, postBytes, entryBytes, dirBytes int64) {
	return int64(len(f.keyArena)), int64(len(f.postArena)), f.entryBytes(), f.dirBytes()
}

// Bitmap reports whether the index keeps the bitmap layout: its keys as
// the set bits of a bitmap of their space, not in a hash-ordered arena.
func (f *Frozen) Bitmap() bool { return f.bitmap }
