package invindex

import (
	"encoding/binary"
	"math/bits"
	"unsafe"

	"gph/internal/cpu"
)

// The content tier's AVX-512 passes (kernels_amd64.s) judge a section's
// refs, its quotient-layout keys and its lists a vector at a time, and
// only ever accept: what a kernel refuses goes to the exact Go pass
// (checkKeys, judgeList), which decides and says what is wrong. So each
// arm gives every section the same verdict and the same message.
//
// The refs and remainders kernels read elements of rl bytes packed end
// to end, 64/lane of
// them a vector: a masked load of exactly their bytes (load), then a
// VPERMB (perm, widen's) that puts each in a lane of lane bytes,
// zero-extended. A group is 64 elements, lane vectors, and its result is
// one little-endian word, bit i for element i. No byte outside the
// elements is read, so an arena may end at an unreadable page, at any
// alignment.
//
// refLists{8,16,32} classify the refs of groups groups: bit i of
// lists[g] is set where ref 64g + i is at least split, a list's, and top
// holds the largest of the others lane by lane, as the kernels' lanes
// keep it. Lanes of one or two bytes hold split only where it fits;
// refsLane picks the lane.
//
// remsAscend{8,16,32,64} judge groups groups of remainders, the first at
// rems, each against the remainder before it (rl bytes before, which must
// be readable): bad is nonzero where a remainder is not above the one
// before it and no bucket starts at its entry (marks, a byte an entry,
// nonzero for a start), and seen is the remainders ored together — a word
// whose lanes, folded (foldLanes), are the or of all of them.
//
// dirDescents{16,32} judge groups groups of 64 directory offsets, the
// first at dir, each against the offset before it: the result is nonzero
// where one is below the one before it.

// listsOK judges lists eight at a time, list i spanning offsets[i] up to
// offsets[i + 1]: bit i of ok is set where the list has a one-byte head
// and the rest of its span is its count of ids as varintWordOK clears
// them (a span of 3 to 8 bytes, the 8 bytes from its start in the arena,
// of size bytes) or as varintsOK does (a span of 9 or more, in the
// arena). It reads 8·groups + 1 offsets.

// keyBlock is how many entries the keys pass marks bucket starts for
// before it hands them to the kernel, and how many directory offsets a
// kernel call judges.
const keyBlock = 512

// widen returns the VPERMB index vector that puts rl-byte elements,
// packed from byte 0, one a lane of lane bytes, zero-extended: byte j of
// lane i is byte rl·i + j for j < rl, and byte 63 past it, which the
// masked load of 64/lane elements leaves zero when rl < lane.
func widen(rl, lane int) (perm [64]byte) {
	for b := range perm {
		perm[b] = 63
		if i, j := b/lane, b%lane; j < rl {
			perm[b] = byte(rl*i + j)
		}
	}
	return perm
}

// loadMask returns the byte mask of a vector of 64/lane elements of rl
// bytes.
func loadMask(rl, lane int) uint64 { return ^uint64(0) >> (64 - 64/lane*rl) }

// refsLane returns the lane the refs kernel classifies refLen-byte refs
// against split in: their own width where split fits it, else four bytes.
func refsLane(refLen int, split uint32) int {
	if (refLen == 1 || refLen == 2) && split < 1<<(8*refLen) {
		return refLen
	}
	return 4
}

// remLane returns the lane a remainder of rl bytes is judged in: the
// power of two that holds it.
func remLane(rl int) int { return 1 << bits.Len(uint(rl-1)) }

// foldLanes ors the lanes of lane bytes of w together.
func foldLanes(w uint64, lane int) uint64 {
	for s := 32; s >= 8*lane; s /= 2 {
		w |= w >> s
	}
	return w & (^uint64(0) >> (64 - 8*lane))
}

// refPass carries the refs kernel through a section's blocks; its zero
// value, lane 0, is the portable arm's, which has none.
type refPass struct {
	lane, stride int
	perm         [64]byte
	load         uint64
	split        uint64
	top          [64]byte // the largest one-id ref, lane by lane
	ref          bool     // run the Go reference, not the assembly
}

// newRefPass readies the refs kernel of arm for f's refs.
func (f *Frozen) newRefPass(arm cpu.Kernel) refPass {
	if arm == cpu.KernelPortable {
		return refPass{}
	}
	lane := refsLane(f.refLen, uint32(f.maxID))
	return refPass{lane: lane, stride: 64 / lane * f.refLen, perm: widen(f.refLen, lane), load: loadMask(f.refLen, lane), split: uint64(f.maxID), ref: arm == cpu.KernelGo}
}

// most returns the largest one-id ref the kernel met.
func (p *refPass) most() uint32 {
	var most uint64
	for i := 0; p.lane > 0 && i < 64; i += p.lane {
		var v [8]byte
		copy(v[:], p.top[i:i+p.lane])
		most = max(most, binary.LittleEndian.Uint64(v[:]))
	}
	return uint32(most)
}

// kernelLists is noteLists on the refs kernel: it notes in lists which of
// the n ≤ scanBlock entries whose refs lead refs are lists and returns
// how many are, the largest one-id ref kept in p and, for the entries
// past the last whole group, in top.
func (f *Frozen) kernelLists(p *refPass, refs []byte, n int, lists *[scanBlock]int32, top *uint32) int {
	var words [scanBlock / 64]uint64
	groups := n / 64
	if groups > 0 {
		_ = refs[groups*64*f.refLen-1] // the bytes the kernel reads, bounds-checked
		r, out := &refs[0], &words[0]
		switch {
		case p.ref:
			refListsGo(p.lane, r, groups, p.stride, &p.perm, p.load, p.split, out, &p.top)
		case p.lane == 1:
			refLists8(r, groups, p.stride, &p.perm, p.load, p.split, out, &p.top)
		case p.lane == 2:
			refLists16(r, groups, p.stride, &p.perm, p.load, p.split, out, &p.top)
		default:
			refLists32(r, groups, p.stride, &p.perm, p.load, p.split, out, &p.top)
		}
	}
	k := 0
	for g, m := range words[:groups] {
		for ; m != 0; m &= m - 1 {
			lists[k] = int32(64*g + bits.TrailingZeros64(m))
			k++
		}
	}
	mask := ^uint32(0) >> (32 - 8*f.refLen)
	for j := 64 * groups; j < n; j++ {
		r := binary.LittleEndian.Uint32(refs[f.refLen*j:]) & mask
		if uint64(r) >= p.split {
			lists[k] = int32(j)
			k++
		} else {
			*top = max(*top, r)
		}
	}
	return k
}

// listPass is what the lists kernel judges a block's lists from: the
// offset of each list noted in the block, after the one left open by the
// block before, and its entry.
type listPass struct {
	offs [scanBlock + 16]uint32 // 8 past the last group's lists, which listsOK reads
	ents [scanBlock + 1]int32
	ok   [scanBlock/8 + 1]byte
}

// judgeBlock is checkLists' loop over a block's lists on the lists kernel:
// the lists noted (entries base + j for j in lists) and the one left open
// (entry open at offset lo, if open ≥ 0) are judged, each up to the next
// one's offset, and the last noted is left open. A list the kernel clears
// where the lists before it end is taken as it is; any other goes to
// judgeList. It returns where the judged lists end, the ids they hold,
// and the list left open.
func (f *Frozen) judgeBlock(kp *refPass, lp *listPass, base int, lists []int32, pos, open, lo int) (int, int64, int, int, error) {
	m := 0
	if open >= 0 {
		lp.offs[0], lp.ents[0], m = uint32(lo), int32(open), 1
	}
	for _, j := range lists {
		e := base + int(j)
		lp.offs[m], lp.ents[m] = f.ref(e)-uint32(f.maxID), int32(e)
		m++
	}
	judged, arena, idLimit := m-1, f.postArena, uint64(f.maxID)
	if groups := (judged + 7) / 8; groups > 0 {
		a := unsafe.SliceData(arena)
		if kp.ref {
			listsOKGo(a, len(arena), &lp.offs[0], groups, idLimit, &lp.ok[0])
		} else {
			listsOK(a, len(arena), &lp.offs[0], groups, idLimit, &lp.ok[0])
		}
	}
	var postings int64
	for i := range judged {
		lo, hi := int(lp.offs[i]), int(lp.offs[i+1])
		if lp.ok[i/8]>>(i%8)&1 != 0 && lo == pos {
			pos, postings = hi, postings+int64(arena[lo])+2
			continue
		}
		var c int64
		var err error
		if pos, c, err = f.judgeList(int(lp.ents[i]), lo, pos, hi, idLimit); err != nil {
			return 0, 0, 0, 0, err
		}
		postings += c
	}
	return pos, postings, int(lp.ents[m-1]), int(lp.offs[m-1]), nil
}

// keysAccepted is checkKeys' fast accept for a quotient-layout section,
// on the keys kernels (ref: their Go reference): true only where
// checkKeys passes the section. The directory kernel holds each offset
// at or above the one before it; a walk of the offsets then marks the
// entries buckets start at, a block at a time, and the remainders kernel
// holds each remainder above the one before it unless a bucket starts at
// it, and ors them together for the width check.
func (f *Frozen) keysAccepted(ref bool) bool {
	if f.dir16 != nil {
		return acceptKeys(f, f.dir16, ref)
	}
	return acceptKeys(f, f.dir32, ref)
}

// acceptKeys is keysAccepted over a directory of D offsets.
func acceptKeys[D dirOffset](f *Frozen, dir []D, ref bool) bool {
	n, rl := f.numKeys, f.remLen
	if dir[0] != 0 || int(dir[len(dir)-1]) != n || dirDescends(dir, ref) {
		return false
	}
	lane := remLane(rl)
	perm, load, stride := widen(rl, lane), loadMask(rl, lane), 64/lane*rl
	rem := func(e int) uint64 { return binary.LittleEndian.Uint64(f.keyArena[rl*e:]) & (^uint64(0) >> (64 - 8*rl)) }
	// Entry 0 follows no key, so a bucket that starts at it needs no mark.
	// The directory ascends and ends at n: the walk of a block stops at an
	// offset at or past the block's end, which one is.
	var seen, bad uint64
	if n > 0 {
		seen = rem(0)
	}
	b := 1
	for b < len(dir) && dir[b] == 0 {
		b++
	}
	var marks [keyBlock]byte
	for lo := 1; lo < n; lo += keyBlock {
		hi := min(lo+keyBlock, n)
		clear(marks[:])
		for ; int(dir[b]) < hi; b++ {
			marks[uint(int(dir[b])-lo)%keyBlock] = 1
		}
		groups := (hi - lo) / 64
		if groups > 0 {
			_ = f.keyArena[rl*(lo+64*groups)-1] // the bytes the kernel reads, bounds-checked
			r, m := &f.keyArena[rl*lo], &marks
			var bd, sn uint64
			switch {
			case ref:
				bd, sn = remsAscendGo(lane, r, groups, stride, rl, &perm, load, m)
			case lane == 1:
				bd, sn = remsAscend8(r, groups, stride, rl, &perm, load, m)
			case lane == 2:
				bd, sn = remsAscend16(r, groups, stride, rl, &perm, load, m)
			case lane == 4:
				bd, sn = remsAscend32(r, groups, stride, rl, &perm, load, m)
			default:
				bd, sn = remsAscend64(r, groups, stride, rl, &perm, load, m)
			}
			bad, seen = bad|bd, seen|foldLanes(sn, lane)
		}
		for e := lo + 64*groups; e < hi; e++ {
			r := rem(e)
			if r <= rem(e-1) && marks[e-lo] == 0 {
				bad = 1
			}
			seen |= r
		}
	}
	return bad == 0 && seen&^f.remMask() == 0
}

// dirDescends reports whether an offset of dir is below the one before
// it, a block of keyBlock offsets a kernel call (ref: its Go reference).
func dirDescends[D dirOffset](dir []D, ref bool) bool {
	var bad uint64
	for at := 1; at < len(dir); at += keyBlock {
		m := min(keyBlock, len(dir)-at)
		groups := m / 64
		if groups > 0 {
			p := unsafe.Pointer(&dir[at])
			_ = dir[at+64*groups-1] // the offsets the kernel reads, bounds-checked
			switch {
			case ref:
				bad |= dirDescentsGo(p, int(unsafe.Sizeof(dir[0])), groups)
			case unsafe.Sizeof(dir[0]) == 2:
				bad |= dirDescents16(p, groups)
			default:
				bad |= dirDescents32(p, groups)
			}
		}
		for i := at + 64*groups; i < at+m; i++ {
			if dir[i] < dir[i-1] {
				bad = 1
			}
		}
	}
	return bad != 0
}

// permLoad is the kernels' load, for their Go reference: the bytes of src
// that load selects, the rest zero, permuted by perm.
func permLoad(src unsafe.Pointer, load uint64, perm *[64]byte) (v [64]byte) {
	var raw [64]byte
	for i := range raw {
		if load>>i&1 != 0 {
			raw[i] = *(*byte)(unsafe.Add(src, i))
		}
	}
	for i, p := range perm {
		v[i] = raw[p&63]
	}
	return v
}

// laneOf returns lane i, of lane bytes, of v.
func laneOf(v *[64]byte, lane, i int) uint64 {
	var w [8]byte
	copy(w[:], v[i*lane:(i+1)*lane])
	return binary.LittleEndian.Uint64(w[:])
}

// setLane writes x over lane i, of lane bytes, of v.
func setLane(v *[64]byte, lane, i int, x uint64) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], x)
	copy(v[i*lane:(i+1)*lane], w[:lane])
}

// refListsGo is the Go reference of the refs kernels, at the lane given.
func refListsGo(lane int, refs *byte, groups, stride int, perm *[64]byte, load, split uint64, lists *uint64, top *[64]byte) {
	out, lanes := unsafe.Slice(lists, groups), 64/lane
	for g := range out {
		var word uint64
		for v := range lane {
			x := permLoad(unsafe.Add(unsafe.Pointer(refs), (g*lane+v)*stride), load, perm)
			for i := range lanes {
				if r := laneOf(&x, lane, i); r >= split&(^uint64(0)>>(64-8*lane)) {
					word |= 1 << (v*lanes + i)
				} else {
					setLane(top, lane, i, max(laneOf(top, lane, i), r))
				}
			}
		}
		out[g] = word
	}
}

// remsAscendGo is the Go reference of the remainders kernels, at the
// lane given.
func remsAscendGo(lane int, rems *byte, groups, stride, rl int, perm *[64]byte, load uint64, marks *[keyBlock]byte) (bad, seen uint64) {
	lanes := 64 / lane
	for g := range groups {
		var desc uint64
		for v := range lane {
			at := unsafe.Add(unsafe.Pointer(rems), (g*lane+v)*stride)
			cur, prev := permLoad(at, load, perm), permLoad(unsafe.Add(at, -rl), load, perm)
			for i := range lanes {
				c := laneOf(&cur, lane, i)
				if c <= laneOf(&prev, lane, i) && marks[64*g+v*lanes+i] == 0 {
					desc |= 1 << (v*lanes + i)
				}
				seen |= c
			}
		}
		bad |= desc
	}
	return bad, seen
}

// listsOKGo is the Go reference of the lists kernel.
func listsOKGo(arena *byte, size int, offs *uint32, groups int, idLimit uint64, ok *byte) {
	a, o, out := unsafe.Slice(arena, size), unsafe.Slice(offs, 8*groups+1), unsafe.Slice(ok, groups)
	for g := range out {
		var m byte
		for i := range 8 {
			lo, hi := int(o[8*g+i]), int(o[8*g+i+1])
			switch span := hi - lo; {
			case span >= 3 && span <= 8 && lo+8 <= size && a[lo] < 0x80:
				if varintWordOK(binary.LittleEndian.Uint64(a[lo:])>>8, uint(span-1), uint32(a[lo])+2, idLimit) {
					m |= 1 << i
				}
			case span >= 9 && hi <= size && a[lo] < 0x80:
				if varintsOK(a[lo+1:hi], uint32(a[lo])+2, idLimit) {
					m |= 1 << i
				}
			}
		}
		out[g] = m
	}
}

// dirDescentsGo is the Go reference of the directory kernels, over
// offsets of width bytes.
func dirDescentsGo(dir unsafe.Pointer, width, groups int) (bad uint64) {
	at := func(i int) uint32 {
		if width == 2 {
			return uint32(*(*uint16)(unsafe.Add(dir, 2*i)))
		}
		return *(*uint32)(unsafe.Add(dir, 4*i))
	}
	for i := range 64 * groups {
		if at(i) < at(i-1) {
			bad |= 1 << (i % 64)
		}
	}
	return bad
}

// kernelArm returns the arm the content tier runs: the one cpu.Force
// set, else the kernels where kernelMissing is empty and the portable
// passes where it is not. Under cpu.KernelGo the drivers call the
// kernels' Go reference, so that they run on a host without the kernels
// too.
func kernelArm() cpu.Kernel {
	if k := cpu.Forced().Kernel; k != cpu.KernelAssembly || kernelMissing == "" {
		return k
	}
	return cpu.KernelPortable
}
