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
	"sync/atomic"

	"gph/internal/binio"
	"gph/internal/bitvec"
)

// Frozen is the immutable, compact form of an inverted index: the
// query substrate every filter-and-refine engine probes, built by
// FreezeRows. It stores
//
//   - its keys in one of two layouts, whichever takes fewer bytes
//     (FreezeRows decides). The hash layout keeps every distinct key,
//     each keyLen bytes, concatenated in one byte arena: key e starts at
//     e·keyLen, so keys need no offsets. The keys are in the order of
//     their hash (hashKey), which for keys of one word or less is
//     one-to-one, and of their bytes where two hashes tie; a key's bucket
//     is the top bits of its hash, so the keys of a bucket lie together
//     and the buckets ascend. The bitmap layout, for a partition of w ≤
//     maxBitmapWidth bits, keeps instead one bit for each of the 2^w
//     keys the partition can hold, set where it holds one (at least a
//     word of them), and its entries in ascending key order: key k's
//     entry is its rank, the number of keys below it;
//   - one ref and one count an entry: the ref of an entry with one id is
//     the id itself, and that of an entry with more is where its list
//     starts in a second arena — lists of two or more ids, delta-varint
//     encoded (ids are ascending, so gaps are small and most postings
//     cost 1–2 bytes), each decoded by its count and starting where the
//     one before it ends. Each is as wide as its numbers: a ref takes the
//     bytes the largest ref needs (refLen), a count one byte when every
//     count of the index fits one and four otherwise;
//   - derived state that finds a key's entry. In the hash layout it is a
//     directory of where each bucket's entries start, so a probe is one
//     hash, two adjacent directory reads and a compare over the bucket's
//     one or two keys; its offsets are 16 bits wide when the index has
//     at most 65 535 keys and 32 otherwise. In the bitmap layout it is a
//     rank array, the keys below each 512-bit block of the bitmap, so a
//     probe is a bit test, one rank read and the popcounts of the block's
//     words before the key's (rankOf).
//
// Lookups are allocation-free (keys hash and compare against the arena
// directly, or test their bit), SizeBytes is exact arithmetic over the
// backing slices rather than an estimate, and the arenas serialize
// as-is, so loading a persisted frozen index is O(bytes) slicing; the
// directory or rank array is not written, and a read index builds it at
// its first lookup (BuildDir), so an index that is only ever scanned
// never pays for it.
//
// A Frozen is immutable after FreezeRows/ReadFrozen and safe for
// concurrent use (deferred validation and the directory's build are
// internally synchronized).
type Frozen struct {
	keyArena  []byte // hash layout: distinct keys, concatenated in hash order, then the pad (keyPad); bitmap layout: the bitmap
	keyLen    int    // bytes a key, KeyLen of the projection's width
	postArena []byte // delta-varint lists of two or more ids, in entry order
	refs      []byte // refLen little-endian bytes an entry, then the pad (refPad): the id of a one-id entry, else where its list starts in postArena
	refLen    int    // bytes a ref, refLenFor the largest
	postings  int64  // total postings across all keys

	// Postings per key, never 0, so PostingLenBytes needs no decode: in
	// counts8 when every count fits a byte and in counts32 otherwise, the
	// other field nil. Counts have an array of their own, not a place
	// beside each ref: the histogram loop reads them at a constant stride.
	counts8  []uint8
	counts32 []uint32

	// The bucket directory: the entries of bucket b, the keys whose hash
	// is b in its top bits, are dir[b] up to dir[b+1]. It has
	// 2^bucketBits(n) + 1 offsets for n keys, in dir16 when n is at most
	// maxNarrowKeys and in dir32 otherwise, the other field nil; dirShift
	// is what bucket shifts a hash by to find its bucket. In the bitmap
	// layout dir32 is the rank array instead (rankLen). FreezeRows
	// builds it; a read index builds it at its first lookup (BuildDir),
	// and dirReady's release-store publishes it to the acquire-load
	// there; dirMu serializes the one build.
	dir16    []uint16
	dir32    []uint32
	dirShift uint
	bitmap   bool // the bitmap layout: keyArena is the bitmap, dir32 its rank array
	dirReady atomic.Bool
	dirMu    sync.Mutex

	// Deferred content validation (see ReadPayload): maxID is
	// the id bound Validate checks postings against, and deepOnce/
	// deepErr make Validate idempotent and safe under concurrent first
	// queries.
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

// wordKeys reports whether every key fits one word: 1 ≤ keyLen ≤ 8, the
// keys of every partition of 1 to 64 bits. Such a key is read as the
// 8-byte little-endian load at its start, masked with keyMask.
func (f *Frozen) wordKeys() bool { return uint(f.keyLen-1) < 8 }

// keyMask keeps the keyLen low bytes of a word: a one-word key's own
// bytes out of the load at its start. The shift is taken mod 64, which
// is exact for 1 ≤ keyLen ≤ 8 and spares the compiler's guard for
// shifts past the word.
func (f *Frozen) keyMask() uint64 { return ^uint64(0) >> ((64 - 8*uint(f.keyLen)) & 63) }

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

// entryCount is the type of a stored posting count.
type entryCount interface{ uint8 | uint32 }

// addList ends the entry whose key was just appended to the key arena:
// it encodes ids, ascending and at least one, as the entry's list when
// there are two or more, and returns the entry's ref.
func (f *Frozen) addList(ids []int32) uint32 {
	ref := uint32(len(f.postArena))
	if len(ids) == 1 {
		ref = uint32(ids[0])
	} else {
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

// addCount appends an entry's count: to counts8 while every count fits a
// byte, and from the first that does not to counts32, where the counts
// before it move.
func (f *Frozen) addCount(c int) {
	if f.counts32 == nil && c <= math.MaxUint8 {
		f.counts8 = append(f.counts8, uint8(c))
		return
	}
	if f.counts32 == nil {
		f.counts32 = make([]uint32, len(f.counts8), cap(f.counts8))
		for e, c8 := range f.counts8 {
			f.counts32[e] = uint32(c8)
		}
		f.counts8 = nil
	}
	f.counts32 = append(f.counts32, uint32(c))
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
// a width-bit partition in fewer bytes than the hash layout — the bitmap
// and its rank array against the key arena and the directory — which is
// the layout rule: bytes alone, so what a partition gets follows from its
// width and key count.
func useBitmap(width, distinct int) bool {
	if width < 1 || width > maxBitmapWidth {
		return false
	}
	bm := bitmapBytes(width)
	kl := KeyLen(width)
	return int64(bm)+4*int64(rankLen(bm)) < int64(kl*distinct+keyPad(kl, distinct))+directoryBytes(distinct)
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
	f := &Frozen{
		keyLen: keyLen,
		// A list of c ids repeats its key c − 1 times: 2(c − 1) ≥ c bytes
		// holds it at a byte a gap.
		postArena: make([]byte, 0, 2*(keys-distinct)),
		counts8:   make([]uint8, 0, distinct),
		maxID:     math.MaxInt32, // ids are valid by construction
	}
	var entries []int32 // the runs in entry order
	if how == bitmapLayout || how == pickLayout && useBitmap(width, distinct) {
		entries = f.layBitmap(width, distinct, func(r int32) uint64 { return key(order[runs[r]])[0] })
	} else {
		// A key shorter than a word is written as its whole word and cut
		// back: the last one's word ends where the pad does.
		f.keyArena = make([]byte, 0, keyLen*distinct+keyPad(keyLen, distinct))
		entries = hashRuns(distinct, func(r int32) uint64 { return hashWords(keyLen, key(order[runs[r]])) })
	}
	// Refs are gathered at full width and stored at the width they need
	// once the largest is known.
	refs := make([]uint32, 0, distinct)
	for _, r := range entries {
		j, end := runs[r], runs[r+1]
		if !f.bitmap {
			start := len(f.keyArena)
			for _, word := range key(order[j]) {
				f.keyArena = binary.LittleEndian.AppendUint64(f.keyArena, word)
			}
			f.keyArena = f.keyArena[:start+keyLen]
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
		f.addCount(len(ids))
	}
	if !f.bitmap {
		f.keyArena = append(f.keyArena, make([]byte, keyPad(keyLen, distinct))...)
	}
	f.packRefs(refs)
	f.buildDir()
	return f
}

// hashRuns returns the runs 0 up to distinct, which are in lexicographic
// key order and whose hashes hashOf gives, in hash order. One stable
// counting pass puts them in bucket order, and each bucket's few are then
// sorted by hash, stably, so the bytes break a tie (keys of several
// words). A run's hash is taken again where it is needed rather than
// kept: the build's peak is its arrays, and a hash is one multiply a
// word.
func hashRuns(distinct int, hashOf func(r int32) uint64) []int32 {
	shift := dirShift(distinct)
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
	f.buildDir()
	byKey := make([]int32, distinct)
	for r := range int32(distinct) {
		byKey[f.rankOf(keyOf(r))] = r
	}
	return byKey
}

// ProjectRows returns the rows FreezeRows takes for data projected onto
// dims: one key an id, ⌈len(dims)/64⌉ words each.
func ProjectRows(data []bitvec.Vector, dims []int) []uint64 {
	w := (len(dims) + bitvec.WordBits - 1) / bitvec.WordBits
	rows := make([]uint64, len(data)*w)
	for id, v := range data {
		v.ProjectInto(dims, bitvec.FromWordsSharedUnchecked(len(dims), rows[id*w:(id+1)*w]))
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
// constant.
const hashMul = 0x9E3779B97F4A7C15

// mix folds one 8-byte key word into the running hash: an xor, then a
// multiply by hashMul mod 2⁶⁴. Keys are packed projections whose entropy
// sits in their low bits, and a key's bucket is the hash's top bits; the
// multiply carries every input bit up into them. It is one-to-one in w,
// so two keys of one word or less never share a hash, and the key pass
// checks their order with one compare a key.
//
// The hash is part of the file format: a saved index stores its keys in
// the order of their hashes, so an edit to mix, hashWord or hashKey
// makes every saved index fail validation. TestHashIsFormat pins it.
func mix(h, w uint64) uint64 { return (h ^ w) * hashMul }

// hashWord is hashKey of the keyLen-byte little-endian key holding w,
// for keyLen ≤ 8: the length seeds the hash and the key is its one
// zero-extended word.
func hashWord(keyLen int, w uint64) uint64 { return mix(uint64(keyLen), w) }

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

// dirShift returns what bucket shifts a hash by in an index of n keys:
// 63 − bucketBits(n).
func dirShift(n int) uint { return 63 - uint(bucketBits(n)) }

// bucket returns the bucket of hash h in an index whose dirShift is
// shift: the top 63 − shift bits of h, none for one bucket. Both shifts
// are below 64, so neither needs the guard a shift by 64 would.
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

func (f *Frozen) key(e int) []byte { return f.keyArena[e*f.keyLen : (e+1)*f.keyLen] }

// lookupBytes returns the entry index for key, or −1.
func (f *Frozen) lookupBytes(key []byte) int {
	if f.bitmap {
		if len(key) != f.keyLen {
			return -1
		}
		var w uint64
		for i, b := range key {
			w |= uint64(b) << (8 * i)
		}
		return f.bitmapEntry(w)
	}
	f.BuildDir()
	lo, hi := f.span(hashKey(key))
	for e := lo; e < hi; e++ {
		if bytes.Equal(f.key(e), key) {
			return e
		}
	}
	return -1
}

// lookupWord is lookupBytes for the key holding w in its keyLen
// little-endian bytes — the packed projection of a partition of at most
// 64 bits — without the bytes: the word is hashed and compared as a
// word. A w with a bit past the key's bytes is held under no key.
func (f *Frozen) lookupWord(w uint64) int {
	e, _ := f.probeWord(w)
	return e
}

// probeWord is lookupWord with the entry's count, 0 for none: the call
// a probe makes, lookupWord and PostingLenWord inlined around it.
func (f *Frozen) probeWord(w uint64) (e, count int) {
	if f.bitmap {
		e = f.bitmapEntry(w)
		return e, f.count(e)
	}
	if !f.wordKeys() || len(f.keyArena) == 0 {
		return -1, 0 // keys of several words, or of none, or no keys
	}
	f.BuildDir()
	lo, hi := f.span(hashWord(f.keyLen, w))
	e = f.inBucket(lo, hi, w)
	return e, f.count(e)
}

// inBucket returns the entry among lo up to hi, a bucket of an index of
// keys of one word or less, at least one of them, whose key is w, or −1.
// It compares the bucket's first two keys without a branch, which
// settles a bucket of one or two keys, most of them: whether a probe
// hits its bucket's first key is a coin toss no predictor learns. A key
// outside the bucket cannot be w, which hashes into it, so the compares
// need not know where the bucket ends; the reads stop at the arena's
// last key. A longer bucket's rest is walked by walkBucket.
func (f *Frozen) inBucket(lo, hi int, w uint64) int {
	kl, keep, last := f.keyLen, f.keyMask(), f.NumKeys()-1
	e0, e1 := min(lo, last), min(lo+1, last)
	e := -1
	if binary.LittleEndian.Uint64(f.keyArena[kl*e1:])&keep == w {
		e = e1
	}
	if binary.LittleEndian.Uint64(f.keyArena[kl*e0:])&keep == w {
		e = e0
	}
	if hi-lo > 2 && e < 0 {
		e = f.walkBucket(lo+2, hi, w)
	}
	return e
}

// span returns the entries of the bucket hash h falls in: from lo up to
// hi. The directory must be built: every lookup calls BuildDir first,
// and a read index's first lookup builds it there.
func (f *Frozen) span(h uint64) (lo, hi int) {
	b := bucket(h, f.dirShift)
	if d := f.dir16; d != nil {
		return int(d[b]), int(d[b+1])
	}
	return int(f.dir32[b]), int(f.dir32[b+1])
}

// BuildDir builds the directory now, if no lookup has: for a caller that
// builds the directories of many indexes side by side before their
// first lookups would build them one behind another.
func (f *Frozen) BuildDir() {
	if !f.dirReady.Load() {
		f.buildDir()
	}
}

// buildDir builds the directory exactly once; concurrent first lookups
// serialize on dirMu and all but one find it built. It reads the keys'
// hashes and nothing else, so it waits for no verdict: over keys out of
// hash order it builds a directory whose buckets still lie inside the
// arena, and a lookup through it finds what it finds.
func (f *Frozen) buildDir() {
	f.dirMu.Lock()
	//gphlint:ignore hotpath one-time cold path behind the dirReady fast path
	defer f.dirMu.Unlock()
	if f.dirReady.Load() {
		return
	}
	n := f.NumKeys()
	f.dirShift = dirShift(n)
	if offsets := 1<<bucketBits(n) + 1; f.bitmap {
		f.dir32 = fillRank(f.keyArena, make([]uint32, rankLen(len(f.keyArena))))
	} else if n <= maxNarrowKeys {
		f.dir16 = fillDir(f, make([]uint16, offsets))
	} else {
		f.dir32 = fillDir(f, make([]uint32, offsets))
	}
	f.dirReady.Store(true)
}

// fillRank fills rank, rankLen(len(bm)) entries, with the keys of bitmap
// bm below each 512-bit block, and the last with all of them, and returns
// it.
func fillRank(bm []byte, rank []uint32) []uint32 {
	var below uint32
	for b := range rank {
		rank[b] = below
		for i := 64 * b; i < min(64*(b+1), len(bm)); i += 8 {
			below += uint32(bits.OnesCount64(binary.LittleEndian.Uint64(bm[i:])))
		}
	}
	return rank
}

// rankOf returns the entry of key w in the bitmap layout, −1 when the
// bitmap does not hold w: its rank, the keys below it. In a bitmap of
// whole 512-bit blocks that is read off the half-block w lies in: in the
// lower half, w's block's rank entry plus the half's keys below w; in the
// upper half, the next block's rank entry less the half's keys at or
// above w. Either way four words are counted, each masked to the bits on
// w's side (all, some or none), and the half picks the words, masks, sign
// and entry arithmetically: a branch on it, or a loop that stopped at
// w's word, would mispredict on a probe in two. The rank array must be
// built.
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

// bitmapEntry is rankOf for a lookup: an entry past the last — a bitmap
// holding more keys than the section has entries, which its deferred
// validation has yet to reject — reads as the last, so no lookup leaves
// the entry arrays.
func (f *Frozen) bitmapEntry(w uint64) int {
	f.BuildDir()
	return min(f.rankOf(w), f.NumKeys()-1)
}

// fillDir fills dir, 2^bucketBits(n) + 1 zero offsets for f's n keys,
// with where each bucket starts, and returns it: each key writes its
// entry number plus one at its bucket plus one — in hash order the last
// key of a bucket writes where the bucket ends — and a running maximum
// then carries those ends over the buckets no key fell in.
func fillDir[D dirOffset](f *Frozen, dir []D) []D {
	n, shift := f.NumKeys(), f.dirShift
	if f.wordKeys() {
		fillWords(f.keyArena, f.keyLen, n, f.keyMask(), shift, dir)
	} else {
		for e := range n {
			dir[bucket(hashKey(f.key(e)), shift)+1] = D(e + 1)
		}
	}
	// The maximum so far lives in a register: read back from the offset
	// just written, it would wait on the store every step.
	var end D
	for b, o := range dir {
		end = max(end, o)
		dir[b] = end
	}
	return dir
}

// fillWords is fillDir's pass over n keys of kl ≤ 8 bytes. Like
// histWords it keeps a copy of the loop a key length, the stride and the
// hash's seed constants in each.
func fillWords[D dirOffset](keys []byte, kl, n int, keep uint64, shift uint, dir []D) {
	switch kl {
	case 1:
		fillStride(keys, 1, n, keep, shift, dir)
	case 2:
		fillStride(keys, 2, n, keep, shift, dir)
	case 3:
		fillStride(keys, 3, n, keep, shift, dir)
	case 4:
		fillStride(keys, 4, n, keep, shift, dir)
	case 5:
		fillStride(keys, 5, n, keep, shift, dir)
	case 6:
		fillStride(keys, 6, n, keep, shift, dir)
	case 7:
		fillStride(keys, 7, n, keep, shift, dir)
	default:
		fillStride(keys, 8, n, keep, shift, dir)
	}
}

// fillStride is fillWords' loop, inlined into it once a key length. The
// arena's pad keeps the last key's load inside it.
func fillStride[D dirOffset](keys []byte, kl, n int, keep uint64, shift uint, dir []D) {
	for e := range n {
		dir[bucket(hashWord(kl, binary.LittleEndian.Uint64(keys)&keep), shift)+1] = D(e + 1)
		keys = keys[kl:]
	}
}

// walkBucket is inBucket over the entries from lo up to hi, a key at a
// time.
func (f *Frozen) walkBucket(lo, hi int, w uint64) int {
	for e := lo; e < hi; e++ {
		if binary.LittleEndian.Uint64(f.keyArena[f.keyLen*e:])&f.keyMask() == w {
			return e
		}
	}
	return -1
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
// none. A lookup is a chain of dependent loads — directory, keys, count —
// and most of them miss the cache when every position reads another
// index, so the batch runs in stages: every hash and directory read
// (counts[i] holding where the bucket ends until the last stage), then
// every bucket's keys, then every count, a stage's loads in flight side
// by side instead of one chain waiting behind another. A position whose
// index keeps a bitmap (its bit and rank read side by side) or does not
// keep keys of one word or less, or keeps none, is looked up whole in
// the first stage. A nil fs[i] is skipped, entries[i] and counts[i] left
// as they were.
//
//gph:hotpath
func LookupWords(fs []*Frozen, words []uint64, entries []int32, counts []uint32) {
	words, entries, counts = words[:len(fs)], entries[:len(fs)], counts[:len(fs)]
	for i, f := range fs {
		switch {
		case f == nil:
		case f.bitmap:
			entries[i] = int32(f.bitmapEntry(words[i]))
		case !f.wordKeys() || len(f.keyArena) == 0:
			entries[i], counts[i] = -1, 0
		default:
			f.BuildDir()
			lo, hi := f.span(hashWord(f.keyLen, words[i]))
			entries[i], counts[i] = int32(lo), uint32(hi)
		}
	}
	for i, f := range fs {
		if f != nil && !f.bitmap && entries[i] >= 0 {
			entries[i] = int32(f.inBucket(int(entries[i]), int(counts[i]), words[i]))
		}
	}
	for i, f := range fs {
		if f != nil {
			counts[i] = uint32(f.count(int(entries[i])))
		}
	}
}

// NumKeys returns the number of distinct keys.
func (f *Frozen) NumKeys() int { return len(f.counts8) + len(f.counts32) }

// KeyLen returns the bytes each key takes. Loaders check it against the
// partition's packed-key width, KeyLen(width).
func (f *Frozen) KeyLen() int { return f.keyLen }

// TotalPostings returns the total number of (key, id) pairs.
func (f *Frozen) TotalPostings() int64 { return f.postings }

// count returns the length of entry e's posting list, 0 for e = −1 (a
// lookup that found nothing).
func (f *Frozen) count(e int) int {
	if e < 0 {
		return 0
	}
	return int(f.countAt(e))
}

// countAt returns entry e's posting count from the array that holds it.
func (f *Frozen) countAt(e int) uint32 {
	if f.counts32 == nil {
		return uint32(f.counts8[e])
	}
	return f.counts32[e]
}

// countLen returns the bytes a count takes: 4 when the counts are held in
// counts32, else 1.
func (f *Frozen) countLen() int {
	if f.counts32 != nil {
		return 4
	}
	return 1
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
// model: one hash of the key, a walk of its bucket and one read of the
// stored count, no posting byte touched. GPH's threshold allocation sums it over a
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
// and that id — a one-id entry's ref — and, for a list, the list's bytes
// from its start and where the varint after the first id begins.
func (f *Frozen) first(e int) (n uint32, id int32, b []byte, i int) {
	n, id = f.countAt(e), int32(f.ref(e))
	if n > 1 {
		b = f.postArena[id:]
		var v uint32
		v, i = uvarint32(b, 0)
		id = int32(v)
	}
	return n, id, b, i
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

// scanBlock is how many keys CollectWithin compares before it decodes
// the matches among them; the entry numbers fit a stack array.
const scanBlock = 256

// matchWords notes in hits which of a block's keys of kl ≤ 8 bytes (at
// most scanBlock of them; block runs on to the last one's 8-byte load)
// lie within radius of q, and returns how many do. The count advances
// by a conditional move, not a branch. Kept out of line: inlined into
// CollectWithin the loop's live values spill to the stack and a key
// costs half as much again. Each key length gets its own copy of the
// loop, the stride a constant in it: at a stride held in a register the
// reslice keeps a bounds check and a key costs 1.6 ns, not 1.1
// (BenchmarkFrozenProbeVsScan's scan-key, 5-byte keys).
//
//go:noinline
func matchWords(block []byte, kl int, keep, q uint64, radius int, hits *[scanBlock]int32) int {
	switch kl {
	case 1:
		return matchStride(block, 1, keep, q, radius, hits)
	case 2:
		return matchStride(block, 2, keep, q, radius, hits)
	case 3:
		return matchStride(block, 3, keep, q, radius, hits)
	case 4:
		return matchStride(block, 4, keep, q, radius, hits)
	case 5:
		return matchStride(block, 5, keep, q, radius, hits)
	case 6:
		return matchStride(block, 6, keep, q, radius, hits)
	case 7:
		return matchStride(block, 7, keep, q, radius, hits)
	}
	return matchStride(block, 8, keep, q, radius, hits)
}

// matchStride is matchWords' loop, inlined into it once a key length.
func matchStride(block []byte, kl int, keep, q uint64, radius int, hits *[scanBlock]int32) int {
	k := uint(0)
	for e := int32(0); len(block) >= 8; e++ {
		hits[k%scanBlock] = e
		if bits.OnesCount64(binary.LittleEndian.Uint64(block)&keep^q) <= radius {
			k++
		}
		block = block[kl:]
	}
	return int(k)
}

// collect adds entry e's posting list to the set under construction
// (its bitmap, and its ids as a slice that is returned extended) and
// returns the list's length, so that no caller reads the count again:
// the ids are read like appendList reads them, but only ids the bitmap
// does not hold yet are kept, and they are marked. It starts the entry
// as first does, written out: first is too large to inline, and a call
// costs a hit on a one-id key about 1 ns (collect-singleton).
func (f *Frozen) collect(e int, seen []uint64, ids []int32) ([]int32, int) {
	n, id := f.countAt(e), int32(f.ref(e))
	count := int(n)
	var b []byte
	i := 0
	if n > 1 {
		b = f.postArena[id:]
		var v uint32
		v, i = uvarint32(b, 0)
		id = int32(v)
	}
	for {
		if w, bit := id/64, uint(id)%64; seen[w]>>bit&1 == 0 {
			seen[w] |= 1 << bit
			ids = append(ids, id)
		}
		if n--; n == 0 {
			return ids, count
		}
		var v uint32
		v, i = uvarint32(b, i)
		id += int32(v)
	}
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
	case f.bitmap:
		if len(q) == 1 { // keys of one word match no query of another length
			ids, sum = f.collectBitmap(q[0], radius, seen, ids)
		}
	case f.wordKeys() && len(q) == 1:
		// Every hash-layout build: one load a key, one popcount an entry.
		// Keys are taken a block at a time: the matching entries of a block
		// are noted without a branch — which keys match is the one thing
		// about this loop no predictor can learn — and decoded after it.
		kl, keep := f.keyLen, f.keyMask()
		var hits [scanBlock]int32
		for base, n := 0, f.NumKeys(); base < n; base += scanBlock {
			end := min(base+scanBlock, n)
			block := f.keyArena[kl*base : kl*end+8-kl]
			for _, e := range hits[:matchWords(block, kl, keep, q[0], radius, &hits)] {
				var n int
				ids, n = f.collect(base+int(e), seen, ids)
				sum += int64(n)
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
// keys below it.
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

// distance returns the Hamming distance between q and key e read as
// len(q) little-endian words — the one way the key scans load a key
// that is not known to fit a single word. ok is false for keys of any
// other length.
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
// radius-e ball — every radius from one pass over the key arena or the
// bitmap's set bits, which is what threshold allocation falls back to
// when the ball outgrows the keys. hist must hold 64·len(q) + 1 entries,
// one for every distance the words can produce, not just those up to
// the partition width: key bits a deferred validation has yet to reject
// still index in bounds.
//
// The loop is branch-free on purpose: skipping distances beyond a
// threshold costs a data-dependent branch that mispredicts on every
// other key once the threshold nears half the width, several times the
// price of the add it saves.
//
//gph:hotpath
func (f *Frozen) Histogram(q []uint64, hist []int64) {
	if f.bitmap {
		switch {
		case len(q) != 1: // keys of one word lie at no distance from a query of another length
		case f.counts32 == nil:
			histBitmap(f.keyArena, f.counts8, q[0], hist)
		default:
			histBitmap(f.keyArena, f.counts32, q[0], hist)
		}
		return
	}
	if f.wordKeys() && len(q) == 1 {
		if f.counts32 == nil {
			histWords(f.keyArena, f.keyLen, f.keyMask(), f.counts8, q[0], hist)
		} else {
			histWords(f.keyArena, f.keyLen, f.keyMask(), f.counts32, q[0], hist)
		}
		return
	}
	for e := range f.NumKeys() {
		if d, ok := f.distance(e, q); ok {
			hist[d] += int64(f.countAt(e))
		}
	}
}

// histWords is Histogram over keys of kl ≤ 8 bytes — every default
// build: one load, mask and popcount an entry, the loop driven by the
// counts, one instance a count width. Like matchWords it keeps a copy of
// the loop a key length, the stride a constant in each: at a stride held
// in a register a key costs 1.6 ns, not 1.0 (histogram-key, 5-byte keys),
// and one key to an iteration is then as fast as the four-key unroll
// whole-word keys had.
//
//go:noinline
func histWords[C entryCount](keys []byte, kl int, keep uint64, counts []C, q uint64, hist []int64) {
	switch kl {
	case 1:
		histStride(keys, 1, keep, counts, q, hist)
	case 2:
		histStride(keys, 2, keep, counts, q, hist)
	case 3:
		histStride(keys, 3, keep, counts, q, hist)
	case 4:
		histStride(keys, 4, keep, counts, q, hist)
	case 5:
		histStride(keys, 5, keep, counts, q, hist)
	case 6:
		histStride(keys, 6, keep, counts, q, hist)
	case 7:
		histStride(keys, 7, keep, counts, q, hist)
	default:
		histStride(keys, 8, keep, counts, q, hist)
	}
}

// histStride is histWords' loop, inlined into it once a key length.
func histStride[C entryCount](keys []byte, kl int, keep uint64, counts []C, q uint64, hist []int64) {
	for _, c := range counts {
		if len(keys) < 8 {
			break
		}
		hist[bits.OnesCount64(binary.LittleEndian.Uint64(keys)&keep^q)] += int64(c)
		keys = keys[kl:]
	}
}

// histBitmap is Histogram over bitmap bm, whose keys' counts are counts:
// a key's distance is its word's term, shared by the word's 64 keys, and
// its low bits'. It stops before a word whose keys would run past the
// last count, however many keys a bitmap its deferred validation has yet
// to reject holds.
//
//go:noinline
func histBitmap[C entryCount](bm []byte, counts []C, q uint64, hist []int64) {
	e := 0
	for at := 0; at+8 <= len(bm); at += 8 {
		word := binary.LittleEndian.Uint64(bm[at:])
		if e+bits.OnesCount64(word) > len(counts) {
			return
		}
		h := hist[bits.OnesCount64(uint64(at/8)^q/64):]
		for ; word != 0; word &= word - 1 {
			h[bits.OnesCount64(uint64(bits.TrailingZeros64(word))^q%64)] += int64(counts[e])
			e++
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

// keyBytes returns the keys in entry order, keyLen bytes each: the hash
// layout's arena, or the bitmap's set bits written out.
func (f *Frozen) keyBytes() []byte {
	if !f.bitmap {
		return f.keyArena
	}
	keys := make([]byte, 0, f.keyLen*f.NumKeys()+8)
	for at := 0; at+8 <= len(f.keyArena); at += 8 {
		for word := binary.LittleEndian.Uint64(f.keyArena[at:]); word != 0; word &= word - 1 {
			k := uint64(8*at + bits.TrailingZeros64(word))
			keys = binary.LittleEndian.AppendUint64(keys, k)[:len(keys)+f.keyLen]
		}
	}
	return keys
}

// frozenStructBytes is the fixed overhead SizeBytes charges for the
// Frozen struct itself: seven slice headers (24 bytes each) — the arenas,
// the refs, both widths' count arrays and both widths' directories, one
// of each pair nil — plus the key-length, ref-length, postings and
// directory-shift fields. The layout flag sits in padding the struct has
// anyway.
const frozenStructBytes = 7*24 + 32

// SizeBytes reports the exact resident size of the frozen index: the
// key and posting arenas (the bitmap in place of the keys), the
// per-entry refs and counts, the bucket directory or rank array, and the
// struct header.
// Every term is the length of a real backing array, so Fig. 6 reports a
// property of the index rather than a guess. The directory or rank array
// is charged at its size (dirBytes, a function of the key count or the
// bitmap's length) whether or not a first lookup has built it yet, so
// heap- and mmap-opened copies of one index always agree.
func (f *Frozen) SizeBytes() int64 {
	return int64(len(f.keyArena)) + int64(len(f.postArena)) + f.entryBytes() +
		f.dirBytes() + frozenStructBytes
}

// dirBytes returns the bytes of the derived state a lookup reads: the
// rank array of a bitmap, or the directory of the keys.
func (f *Frozen) dirBytes() int64 {
	if f.bitmap {
		return 4 * int64(rankLen(len(f.keyArena)))
	}
	return directoryBytes(f.NumKeys())
}

// entryBytes returns the bytes of the per-entry arrays: the refs with
// their pad, and the counts at their width.
func (f *Frozen) entryBytes() int64 {
	return int64(len(f.refs)) + int64(len(f.counts8)) + 4*int64(len(f.counts32))
}

// WriteTo serializes the frozen index as its arenas and per-entry
// arrays, verbatim; the directory is rebuilt after a read (by the first
// lookup) rather than stored, and the keys need no offsets: they have
// one length, which the header carries.
// Output is deterministic for a given logical index.
//
// The section is split in two halves a container may separate: a
// scalar header carrying every length a reader needs (the key, ref and
// count widths, from which the per-entry arrays' lengths follow with the
// key count, and the arena byte lengths), and a raw payload with
// alignment padding before 4-byte counts, the one word-sized array. A
// borrow-mode reader aliases the whole payload from the header's
// lengths without reading a byte of it, so a container that groups all
// its sections' headers together (as the GPH index does) opens a cold
// mapping by faulting the header pages alone.
func (f *Frozen) WriteTo(bw *binio.Writer) {
	f.WriteHeaderTo(bw)
	f.WritePayloadTo(bw)
}

// WriteHeaderTo writes the section's scalar header: key count,
// posting total, key, ref and count widths, both arena byte lengths (the
// key arena's the bitmap's in that layout) and the layout, 1 for the
// bitmap and 0 for the hash — everything ReadFrozenHeader needs to alias
// the payload without reading it.
func (f *Frozen) WriteHeaderTo(bw *binio.Writer) {
	bw.Int(f.NumKeys())
	bw.Int64(f.postings)
	bw.Int(f.keyLen)
	bw.Int(f.refLen)
	bw.Int(f.countLen())
	bw.Int(len(f.keyArena))
	bw.Int(len(f.postArena))
	layout := 0
	if f.bitmap {
		layout = 1
	}
	bw.Int(layout)
}

// WritePayloadTo writes the arenas and per-entry arrays raw, in the
// order FrozenHeader.ReadPayload consumes them: the refs, bytes, right
// after the posting arena; 4-byte counts after alignment padding, 1-byte
// ones right after the refs.
func (f *Frozen) WritePayloadTo(bw *binio.Writer) {
	bw.Bytes(f.keyArena)
	bw.Bytes(f.postArena)
	bw.Bytes(f.refs)
	if f.counts32 != nil {
		bw.Align8()
		bw.Uint32sRaw(f.counts32)
	} else {
		bw.Bytes(f.counts8)
	}
}

// ReadFrozen reads an index written by WriteTo, validating the count
// total and the contents (lists chained end to end over the arena,
// varint framing, that every id lies in [0, maxID), strict hash order or
// a bitmap holding a key an entry, refs and counts no wider than their
// largest needs) before returning.
// The arenas are adopted directly from the decoded buffers — loading is
// O(bytes) — and the directory is built by the first lookup.
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

// FrozenHeader is the parsed scalar header of one section: everything ReadPayload needs to alias the payload arrays
// without reading them.
type FrozenHeader struct {
	numKeys, keyLen           int
	refLen, countLen          int
	postings                  int64
	keyArenaLen, postArenaLen int
	bitmap                    bool
	maxID                     int32
}

// ReadFrozenHeader parses and sanity-checks one section's scalar
// header as written by WriteHeaderTo. A container may place the
// matching payload much later in the stream (the GPH index groups
// every section's header before any payload, so a cold mapped open
// faults only the contiguous header pages); attach it with
// ReadPayload when the stream reaches it.
func ReadFrozenHeader(br *binio.Reader, maxID int32) (FrozenHeader, error) {
	h := FrozenHeader{maxID: maxID}
	h.numKeys = br.Int()
	h.postings = br.Int64()
	h.keyLen = br.Int()
	h.refLen = br.Int()
	h.countLen = br.Int()
	h.keyArenaLen = br.Int()
	h.postArenaLen = br.Int()
	layout := br.Int()
	h.bitmap = layout == 1
	if err := br.Err(); err != nil {
		return h, fmt.Errorf("invindex: reading frozen header: %w", err)
	}
	if h.numKeys < 0 || h.numKeys > binio.MaxSliceLen {
		return h, fmt.Errorf("invindex: implausible key count %d", h.numKeys)
	}
	if h.postings < 0 {
		return h, fmt.Errorf("invindex: negative posting count %d", h.postings)
	}
	if h.keyLen < 0 || (h.numKeys > 0 && int64(h.keyLen)*int64(h.numKeys) >= arenaLimit) {
		return h, fmt.Errorf("invindex: implausible key length %d", h.keyLen)
	}
	if h.refLen < 1 || h.refLen > 4 {
		return h, fmt.Errorf("invindex: implausible ref length %d", h.refLen)
	}
	if h.countLen != 1 && h.countLen != 4 {
		return h, fmt.Errorf("invindex: implausible count length %d", h.countLen)
	}
	if h.numKeys == 0 && h.refLen+h.countLen != 2 {
		return h, fmt.Errorf("invindex: an index of no keys has 1-byte refs and counts, not %d- and %d-byte ones", h.refLen, h.countLen)
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
	case h.bitmap:
		return h, h.checkBitmap()
	}
	if want := h.keyLen*h.numKeys + keyPad(h.keyLen, h.numKeys); h.keyArenaLen != want {
		return h, fmt.Errorf("invindex: key arena holds %d bytes, %d keys × %d and the pad need %d",
			h.keyArenaLen, h.numKeys, h.keyLen, want)
	}
	return h, nil
}

// checkBitmap is the structural check of a bitmap section: keys of one
// word, and a bitmap as long as the bitmap of some width their bytes
// hold — a power of two bytes, at least a word. Whether it is its
// partition's width is the content tier's to say (ValidateWidth).
func (h FrozenHeader) checkBitmap() error {
	if h.keyLen < 1 || h.keyLen > 8 {
		return fmt.Errorf("invindex: a bitmap of keys of %d bytes", h.keyLen)
	}
	n := h.keyArenaLen
	if n < 8 || n&(n-1) != 0 || n > bitmapBytes(min(8*h.keyLen, maxBitmapWidth)) {
		return fmt.Errorf("invindex: a bitmap of %d bytes, not the bitmap of a key space of %d-byte keys", n, h.keyLen)
	}
	return nil
}

// ReadPayload consumes the section's payload written by
// WritePayloadTo and returns the frozen index with only the O(1) half
// of validation done: header sanity and array lengths. Every array is
// sized from the header, so in borrow mode nothing here reads a payload
// page — arrays are aliased, alignment padding is skipped by offset —
// and an index borrowed off a file mapping opens having touched header
// bytes alone; a truncated file still fails here, at open, because the
// binio reads are bounds-checked. Everything page-touching — count
// totals, the lists' chain, varint framing, id ranges, key order — is
// deferred to Validate, which callers MUST run before any entry accessor
// (lookups, Range, posting decodes): until Validate passes, a corrupted
// ref could make an entry slice panic.
func (h FrozenHeader) ReadPayload(br *binio.Reader) (*Frozen, error) {
	f := &Frozen{keyLen: h.keyLen, refLen: h.refLen, postings: h.postings, bitmap: h.bitmap, maxID: h.maxID}
	f.keyArena = br.BytesRaw(h.keyArenaLen, "frozen key arena")
	f.postArena = br.BytesRaw(h.postArenaLen, "frozen posting arena")
	f.refs = br.BytesRaw(h.refLen*h.numKeys+refPad(h.refLen, h.numKeys), "frozen posting refs")
	if h.countLen == 4 {
		br.Align8()
		f.counts32 = br.Uint32sRaw(h.numKeys, "frozen posting counts")
	} else {
		f.counts8 = br.BytesRaw(h.numKeys, "frozen posting counts")
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("invindex: reading frozen arenas: %w", err)
	}
	return f, nil
}

// Validate runs the deferred content half of loading: every entry has
// an id — a one-id entry's ref in [0, maxID), every other's list
// decoding cleanly by its count (varint framing, ids in [0, maxID)) from
// where the list before it ends, the last ending the arena — keys
// strictly ascend in hash order (bytes breaking a tie) or, in the bitmap
// layout, the bitmap holds as many keys as there are entries, the pads
// are zero, and refs and counts are no wider than the largest of each
// needs, so one index has one file. It reads both arenas end to end —
// over a mapping this is the pass that faults the pages in, which is why
// ReadPayload leaves it to the caller's first query rather than open.
// It builds no directory: the first lookup does, so an index that is
// only ever scanned never pays for one. Idempotent and safe for
// concurrent use; every call returns the first run's verdict.
func (f *Frozen) Validate() error { return f.ValidateWidth(-1) }

// ValidateWidth is Validate for an index whose keys are the packed form
// of a width-bit projection: KeyLen(width) little-endian bytes with no
// bit set at or beyond width, checked in the pass that already holds the
// key. A probe never asks for such a bit and a key scan counts it like
// any other, so a key carrying one would make the two disagree. A
// bitmap must be the bitmap of that width — bitmapBytes(width), no key
// at or past 2^width, so a pad past a bitmap narrower than a word is
// zero — which is also what makes one index one file. The first run's
// width is the one checked; an index has one.
func (f *Frozen) ValidateWidth(width int) error {
	f.deepOnce.Do(func() { f.deepErr = f.validateContent(width) })
	return f.deepErr
}

func (f *Frozen) validateContent(width int) error {
	numKeys := f.NumKeys()
	// One pass over the counts and refs comes first; it touches their
	// pages, which is exactly what ReadPayload avoids at open, so it lives
	// here with the other page-touching checks. The length checks at read
	// time keep every walk below in bounds.
	var ent entryScan
	if f.counts32 == nil {
		ent = scanEntries(f.counts8, f.refs, f.refLen)
	} else {
		ent = scanEntries(f.counts32, f.refs, f.refLen)
	}
	if ent.total != f.postings {
		return fmt.Errorf("invindex: frozen counts sum to %d postings, header says %d", ent.total, f.postings)
	}
	// The pads after keys shorter than a word and after refs shorter than
	// four bytes (empty otherwise) are zero, as FreezeRows writes them: one
	// file per index. A bitmap's pad is its partition's to say.
	if !f.bitmap {
		for i, b := range f.keyArena[f.keyLen*numKeys:] {
			if b != 0 {
				return fmt.Errorf("invindex: key arena pad byte %d is %#x, not 0", i, b)
			}
		}
	}
	for i, b := range f.refs[f.refLen*numKeys:] {
		if b != 0 {
			return fmt.Errorf("invindex: ref pad byte %d is %#x, not 0", i, b)
		}
	}
	// The keys up to the first out of order, then the postings before it:
	// the verdict an entry-by-entry walk reaches — its key against the one
	// before, then its postings — with a key of the wrong width reported
	// only once every entry has passed, as when the width check was a pass
	// of its own after them. A bitmap's keys are in order by construction,
	// and it holds a key an entry.
	disorder, wide := numKeys, -1
	if !f.bitmap {
		disorder, wide = f.scanKeys(width)
	} else if keys := bitmapKeys(f.keyArena); keys != numKeys {
		return fmt.Errorf("invindex: the bitmap holds %d keys, the section %d entries", keys, numKeys)
	}
	idLimit := uint64(max(f.maxID, 0))
	entriesOK := ent.least > 0 && ent.single <= idLimit
	var lastList uint32
	var err error
	switch {
	case entriesOK && ent.total == int64(numKeys):
		// Every entry holds one id — n counts of at least one sum to n — so
		// there is no list to walk, and the arena must be empty.
		if disorder == numKeys && len(f.postArena) != 0 {
			err = fmt.Errorf("invindex: frozen lists end at byte 0 of the %d-byte posting arena", len(f.postArena))
		}
	case f.counts32 == nil:
		lastList, err = checkLists(f, f.counts8, disorder, entriesOK, idLimit)
	default:
		lastList, err = checkLists(f, f.counts32, disorder, entriesOK, idLimit)
	}
	if err != nil {
		return err
	}
	if disorder < numKeys {
		return f.orderError(disorder)
	}
	if wide >= 0 {
		return f.checkKeyWidth(wide, width)
	}
	if f.bitmap && width >= 0 {
		if err := f.checkBitmapWidth(width); err != nil {
			return err
		}
	}
	// A number stored wider than it needs reads the same, so only the
	// widths tell two files of one index apart. The largest ref is the
	// largest one-id entry's or the last list's.
	if f.counts32 != nil {
		if most := slices.Max(f.counts32); most <= math.MaxUint8 {
			return fmt.Errorf("invindex: counts are 4 bytes wide, and the largest, %d, fits one", most)
		}
	}
	top := max(uint32(max(ent.single, 1)-1), lastList)
	if want := refLenFor(top); f.refLen != want {
		return fmt.Errorf("invindex: refs are %d bytes wide, and the largest, %d, needs %d", f.refLen, top, want)
	}
	return nil
}

// orderError says how entry e, the first whose key does not follow the
// one before it in hash order, breaks it: a key not above the one before
// it in their bucket; every key in plain lexicographic order, not in
// hash order (a section of the format before buckets); or a key in a
// bucket below the one before it.
func (f *Frozen) orderError(e int) error {
	shift := dirShift(f.NumKeys())
	b, prev := bucket(hashKey(f.key(e)), shift), bucket(hashKey(f.key(e-1)), shift)
	if b == prev {
		return fmt.Errorf("invindex: frozen keys not in strict hash order at entry %d, in bucket %d", e, b)
	}
	for i := 1; i < f.NumKeys(); i++ {
		if bytes.Compare(f.key(i-1), f.key(i)) >= 0 {
			return fmt.Errorf("invindex: frozen key %d hashes to bucket %d, behind a key of bucket %d", e, b, prev)
		}
	}
	return fmt.Errorf("invindex: frozen keys are in plain lexicographic order, not in hash order")
}

// scanKeys is the key pass: it returns the first entry whose key does
// not follow the one before in hash order, bytes breaking a tie (numKeys
// when every key does), and the first entry before that whose key is not
// the packed form of a width-bit projection (−1 for none, or when
// width < 0).
func (f *Frozen) scanKeys(width int) (disorder, wide int) {
	if f.wordKeys() {
		return f.scanWordKeys(width)
	}
	numKeys := f.NumKeys()
	disorder, wide = numKeys, -1
	var prev uint64
	for e := 0; e < numKeys; e++ {
		h := hashKey(f.key(e))
		if e > 0 && (h < prev || h == prev && bytes.Compare(f.key(e-1), f.key(e)) >= 0) {
			return e, wide
		}
		prev = h
		if width >= 0 && wide < 0 && f.checkKeyWidth(e, width) != nil {
			wide = e
		}
	}
	return disorder, wide
}

// scanWordKeys is scanKeys over keys of kl ≤ 8 bytes, a word a key,
// hashed as lookupWord hashes them. No two such keys share a hash, so
// they are in order when their hashes strictly ascend: one compare a
// key. The key widths are judged from the keys' bits ored together; only
// when some key has a bit past the width is it found, in a second pass.
func (f *Frozen) scanWordKeys(width int) (disorder, wide int) {
	numKeys := f.NumKeys()
	disorder, wide = numKeys, -1
	kl, keep := f.keyLen, f.keyMask()
	arena := f.keyArena
	var seen, prev uint64
	// The arena's pad keeps the last key's load inside it.
	for e := 0; e < numKeys; e++ {
		w := binary.LittleEndian.Uint64(arena[e*kl:]) & keep
		h := hashWord(kl, w)
		if h <= prev && e > 0 {
			disorder = e
			break
		}
		seen |= w
		prev = h
	}
	switch {
	case width < 0 || numKeys == 0:
	case KeyLen(width) != kl:
		wide = 0 // no key of this length is the packed form of such a projection
	case seen>>uint(width) != 0:
		for e := range disorder {
			if binary.LittleEndian.Uint64(arena[kl*e:])&keep>>uint(width) != 0 {
				return disorder, e
			}
		}
	}
	return disorder, wide
}

// checkLists is the postings pass over entries [0, limit) of f, whose
// counts are counts, and, when that is every entry, the check that the
// lists end where the arena does; it returns the last list's ref, 0 for
// no list. entriesOK is scanEntries' verdict on every entry: each has
// postings, and each one-id entry's ref is an id below idLimit. When it
// is false, the first entry before limit that fails is found entry by
// entry; there may be none. The lists before the first such entry are
// each judged from the words that hold them, up to the next list's ref;
// one the words cannot clear — a corrupt list, one off the chain, or one
// whose word would reach past the arena's end — goes to checkList, which
// walks it a byte at a time and says what is wrong with it or where it
// ends.
func checkLists[C entryCount](f *Frozen, counts []C, limit int, entriesOK bool, idLimit uint64) (lastList uint32, err error) {
	counts = counts[:limit]
	bad := limit
	if !entriesOK {
		for e, c := range counts {
			if c == 0 || c == 1 && uint64(f.ref(e)) >= idLimit {
				bad = e
				break
			}
		}
	}
	// Where the next list starts; the list whose end is still to find, its
	// ref and its count.
	pos, open, lo, n := 0, -1, 0, uint32(0)
	for e, c := range counts[:bad] {
		if c < 2 {
			continue
		}
		ref := int(f.ref(e))
		if open >= 0 {
			if pos, err = f.judgeList(open, lo, n, pos, ref, idLimit); err != nil {
				return 0, err
			}
		}
		open, lo, n = e, ref, uint32(c)
	}
	if open >= 0 {
		if pos, err = f.judgeList(open, lo, n, pos, len(f.postArena), idLimit); err != nil {
			return 0, err
		}
	}
	switch {
	case bad < limit && counts[bad] == 0:
		return 0, fmt.Errorf("invindex: frozen entry %d has no postings", bad)
	case bad < limit:
		return 0, fmt.Errorf("invindex: frozen entry %d: posting id %d outside [0,%d)", bad, f.ref(bad), f.maxID)
	case limit == f.NumKeys() && pos != len(f.postArena):
		return 0, fmt.Errorf("invindex: frozen lists end at byte %d of the %d-byte posting arena", pos, len(f.postArena))
	}
	return uint32(lo), nil
}

// entryScan is what one pass over an index's counts and refs finds.
type entryScan struct {
	total  int64  // the counts' sum
	least  uint32 // the smallest count, 1 for no entry
	single uint64 // the largest one-id entry's ref plus one, 0 for none
}

// scanEntries is the pass over counts and refs — rl bytes a ref, then
// the pad — with no branch: a one-id entry stands for its ref plus one in
// single, any other for 0. Like histWords it keeps a copy of the loop a
// ref length, the stride a constant in each.
func scanEntries[C entryCount](counts []C, refs []byte, rl int) entryScan {
	switch rl {
	case 1:
		return entriesStride(counts, refs, 1)
	case 2:
		return entriesStride(counts, refs, 2)
	case 3:
		return entriesStride(counts, refs, 3)
	}
	return entriesStride(counts, refs, 4)
}

// entriesStride is scanEntries' loop, inlined into it once a ref length.
func entriesStride[C entryCount](counts []C, refs []byte, rl int) (s entryScan) {
	mask := ^uint32(0) >> ((32 - 8*uint(rl)) & 31)
	least := C(1)
	for _, c := range counts {
		if len(refs) < 4 {
			break // never: the pad keeps the last ref's load inside the array
		}
		v := uint64(binary.LittleEndian.Uint32(refs)&mask) + 1
		refs = refs[rl:]
		if c != 1 {
			v = 0
		}
		s.total += int64(c)
		s.single, least = max(s.single, v), min(least, c)
	}
	s.least = uint32(least)
	return s
}

// judgeList checks the list of entry e, which holds c ids from lo, its
// ref, and must start at pos, from the words that hold it when it ends at
// hi; it returns where the list ends, from checkList when the words
// cannot clear it.
func (f *Frozen) judgeList(e, lo int, c uint32, pos, hi int, idLimit uint64) (int, error) {
	arena := f.postArena
	ok := false
	if lo == pos && lo < hi && hi <= len(arena) {
		switch n := uint(hi - lo); {
		case n > 8:
			ok = varintsOK(arena[lo:hi], c, idLimit)
		case lo+8 <= len(arena):
			ok = varintWordOK(binary.LittleEndian.Uint64(arena[lo:]), n, c, idLimit)
		}
	}
	if ok {
		return hi, nil
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
// where the lists before it end, and hold its count of ids, framed and in
// range. It returns where the list ends.
func (f *Frozen) checkList(e, pos int) (int, error) {
	if int(f.ref(e)) != pos {
		return 0, fmt.Errorf("invindex: frozen entry %d: list starts at byte %d, the lists before it end at %d", e, f.ref(e), pos)
	}
	end, err := validateList(f.postArena, pos, f.countAt(e), f.maxID)
	if err != nil {
		return 0, fmt.Errorf("invindex: frozen entry %d: %w", e, err)
	}
	return end, nil
}

// bitmapKeys returns the keys bitmap bm holds, its set bits.
func bitmapKeys(bm []byte) int {
	keys := 0
	for at := 0; at+8 <= len(bm); at += 8 {
		keys += bits.OnesCount64(binary.LittleEndian.Uint64(bm[at:]))
	}
	return keys
}

// checkBitmapWidth verifies that the bitmap is that of a width-bit
// partition (ValidateWidth): keys of KeyLen(width) bytes, 2^width bits
// (bitmapBytes), and no key at or past 2^width — past its bits a bitmap
// narrower than a word has only a zero pad.
func (f *Frozen) checkBitmapWidth(width int) error {
	if want := KeyLen(width); f.keyLen != want {
		return fmt.Errorf("invindex: bitmap keys are %d bytes, a %d-bit projection packs to %d", f.keyLen, width, want)
	}
	if width > maxBitmapWidth || len(f.keyArena) != bitmapBytes(width) {
		return fmt.Errorf("invindex: a bitmap of %d bytes, a %d-bit partition's takes %d", len(f.keyArena), width, bitmapBytes(min(width, maxBitmapWidth)))
	}
	if width >= 6 {
		return nil
	}
	past := binary.LittleEndian.Uint64(f.keyArena) >> (1 << width)
	if past == 0 {
		return nil
	}
	k := 1<<width + bits.TrailingZeros64(past)
	if held := (1<<width + 7) / 8; k/8 >= held {
		return fmt.Errorf("invindex: bitmap pad byte %d is %#x, not 0", k/8-held, f.keyArena[k/8])
	}
	return fmt.Errorf("invindex: bitmap key %d has bits set beyond dimension %d", k, width)
}

// checkKeyWidth verifies that key e is the packed form of a width-bit
// projection (ValidateWidth).
func (f *Frozen) checkKeyWidth(e, width int) error {
	key := f.key(e)
	if want := KeyLen(width); len(key) != want {
		return fmt.Errorf("invindex: key %d is %d bytes, a %d-bit projection packs to %d", e, len(key), width, want)
	}
	var last uint64 // the key's last word, zero-extended
	for i, b := range key[(len(key)-1)/8*8:] {
		last |= uint64(b) << (8 * i)
	}
	if tail := uint(width % 64); tail != 0 && last>>tail != 0 {
		return fmt.Errorf("invindex: key %d has bits set beyond dimension %d", e, width)
	}
	return nil
}

// validateList walks the count delta-varints at b[i:], checking framing
// and that every id lies in [0, maxID); it returns the index of the byte
// after the last.
func validateList(b []byte, i int, count uint32, maxID int32) (int, error) {
	var prev int64
	for ; count > 0; count-- {
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
			// Five bytes carry 35 bits, and a value past 32 of them fails
			// the id range below: what is checked here is the length.
			shift += 7
			if shift > 28 {
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

// ArenaBreakdown reports the byte size of each backing component (key
// arena with its pad or bitmap, postings arena, entries — the refs with
// their pad and the counts — and bucket directory or rank array):
// SizeBytes less the struct. internal/core's golden test pins a GPH
// index's footprint by component with it.
func (f *Frozen) ArenaBreakdown() (keyBytes, postBytes, entryBytes, dirBytes int64) {
	return int64(len(f.keyArena)), int64(len(f.postArena)), f.entryBytes(), f.dirBytes()
}

// Bitmap reports whether the index keeps the bitmap layout: its keys as
// the set bits of a bitmap of their space, not in a hash-ordered arena.
func (f *Frozen) Bitmap() bool { return f.bitmap }
