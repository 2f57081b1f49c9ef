package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gph/internal/binio"
	"gph/internal/bitvec"
	"gph/internal/cpu"
	"gph/internal/engine"
	"gph/internal/invindex"
)

// TestCurrentFixtureBytes pins the on-disk format: the checked-in
// testdata/index-gphix13.bin (120 vectors × 48 dims in four partitions:
// of 17 and 16 bits in the quotient layout, so remainders of 2 bytes and
// their pads behind directories of 2-byte offsets, and of 7 and 8 bits in
// the bitmap layout, bitmaps of 16 and 32 bytes; MaxTau 16, Seed 7) loads
// into the heap and borrowed in
// place, answers like a
// linear scan over its own vectors (binding them through the projector's
// gather arm: its partitions' dims are in refinement's order), generates
// candidates that miss none of those answers (Search scans at 120 rows,
// so the index is asked apart: indexCandidates), and is what today's
// writer produces from either, byte for byte.
func TestCurrentFixtureBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "index-gphix13.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if string(want[:8]) != indexMagic {
		t.Fatalf("fixture leads with %q, want %q", want[:8], indexMagic)
	}
	sources := map[string]io.Reader{
		"heap":     bytes.NewReader(want),
		"borrowed": binio.NewSource(want),
	}
	for name, src := range sources {
		ix, err := Load(src)
		if err != nil {
			t.Fatalf("%s: fixture rejected: %v", name, err)
		}
		if ix.Dims() != 48 || ix.Len() != 120 {
			t.Fatalf("%s: fixture decoded as %d dims × %d vectors", name, ix.Dims(), ix.Len())
		}
		var layouts []bool
		for _, inv := range ix.inv {
			layouts = append(layouts, inv.Bitmap())
		}
		if !slices.Equal(layouts, []bool{false, false, true, true}) {
			t.Fatalf("%s: fixture partitions in the bitmap layout: %v, want the last two", name, layouts)
		}
		// Written before builds sorted each partition's dims, the fixture's
		// do not ascend: it binds its queries through the gather.
		if arm := ix.proj.Arm(); arm != "gather" || slices.IsSorted(ix.parts.Parts[0]) {
			t.Fatalf("%s: fixture partition 0 %v projects on the %s arm, want unsorted dims and the gather", name, ix.parts.Parts[0], arm)
		}
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s: re-saves to %d bytes that differ from the %d-byte fixture", name, buf.Len(), len(want))
		}
		for _, tau := range []int{0, 2, 5, 9, 14} {
			for _, qi := range []int32{0, 7, 63, 119} {
				q := ix.Vector(qi)
				got, err := ix.Search(q, tau)
				if err != nil {
					t.Fatal(err)
				}
				var oracle []int32
				for id := int32(0); id < int32(ix.Len()); id++ {
					if q.HammingWithin(ix.Vector(id), tau) {
						oracle = append(oracle, id)
					}
				}
				if !equalIDs(got, oracle) {
					t.Fatalf("%s tau=%d query %d: fixture answers %v, linear scan %v", name, tau, qi, got, oracle)
				}
				cands := indexCandidates(t, ix, q, tau)
				for _, id := range oracle {
					if _, ok := slices.BinarySearch(cands, id); !ok {
						t.Fatalf("%s tau=%d query %d: the index generates %v, which misses %d of %v", name, tau, qi, cands, id, oracle)
					}
				}
			}
		}
	}
}

// indexCandidates is what the index generates for a range query when it
// is asked whatever the scan guard makes of it — the eager DP's
// thresholds handed to generate — sorted: a fixture is too small for the
// guard to let any plan through. Verification is not the index's, and
// not repeated here.
func indexCandidates(t *testing.T, ix *Index, q bitvec.Vector, tau int) []int32 {
	t.Helper()
	want, _ := eagerAllocate(ix, q, tau)
	if want.Fallback {
		t.Fatalf("tau=%d: no threshold vector fits the enumeration budget", tau)
	}
	s := ix.getScratch()
	ix.bindQuery(q, s)
	if err := ix.generate(want.Thresholds, want.EffectiveBudget, s); err != nil {
		t.Fatal(err)
	}
	out := slices.Clone(s.cand.IDs)
	ix.putScratch(s)
	slices.Sort(out)
	return out
}

// keyArenaOffset finds partition p's key arena in ix's saved bytes: the
// bytes the partition's payload starts with, which occur once in the file.
func keyArenaOffset(t *testing.T, ix *Index, raw []byte, p int) int {
	t.Helper()
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	ix.inv[p].WritePayloadTo(bw)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	keyBytes, _, _, _ := ix.inv[p].ArenaBreakdown()
	arena := buf.Bytes()[:keyBytes]
	off := bytes.Index(raw, arena)
	if off < 0 || bytes.Contains(raw[off+1:], arena) {
		t.Fatalf("partition %d's key arena does not occur exactly once in the file", p)
	}
	return off
}

// rejectsEverywhere holds a hostile file to its error, want, under each
// arm of the content tier (the AVX-512 passes where this host has them,
// their Go reference, the portable passes): Load refuses it from a
// stream and from bytes in place; engine.Open refuses it on the heap; a
// mapped open accepts it, having read no payload, and its first search
// and its second refuse it with the same error; and a deferred load
// estimates on it, before any validation, without leaving its arrays.
func rejectsEverywhere(t *testing.T, name string, hostile []byte, want string, q bitvec.Vector) {
	t.Helper()
	for _, arm := range []cpu.Kernel{cpu.KernelAssembly, cpu.KernelGo, cpu.KernelPortable} {
		restore := cpu.Force(cpu.Setting{Kernel: arm})
		rejectsUnder(t, name+", "+arm.String()+" arm", hostile, want, q)
		restore()
	}
}

// rejectsUnder is rejectsEverywhere under the arm in force.
func rejectsUnder(t *testing.T, name string, hostile []byte, want string, q bitvec.Vector) {
	t.Helper()
	if _, err := Load(bytes.NewReader(hostile)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("%s: from a stream: %v, want %q", name, err, want)
	}
	if _, err := Load(binio.NewSource(hostile)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("%s: from bytes in place: %v, want %q", name, err, want)
	}
	deferred, err := LoadDeferred(binio.NewSource(hostile))
	if err != nil {
		t.Fatalf("%s: a deferred load read the arenas: %v", name, err)
	}
	_ = deferred.EstimateTable(q, 70) // the histogram kernel, before any validation
	path := filepath.Join(t.TempDir(), "hostile.gph")
	if err := os.WriteFile(path, hostile, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Open(path, engine.OpenHeap); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("%s: engine.Open on the heap: %v, want %q", name, err, want)
	}
	mapped, err := engine.Open(path, engine.OpenMMap)
	if err != nil {
		t.Fatalf("%s: a mapped open read the payload: %v", name, err)
	}
	_, first := mapped.Search(q, 4)
	_, second := mapped.Search(q, 2)
	mapped.Close()
	if first == nil || !strings.Contains(first.Error(), want) || fmt.Sprint(second) != fmt.Sprint(first) {
		t.Fatalf("%s: a mapped open's first search says %v and its second %v, want %q twice", name, first, second, want)
	}
}

// TestLoadRejectsHostileKeysAndCounts: the stored keys, the directories
// and rank arrays that find them, and the posting counts are the only
// copy of what probes and CN estimation read, so they are checked. In a
// partition of the quotient layout: a remainder bit at or past the
// remainder's width, a nonzero byte in the pad after the remainders, a
// directory that descends, one whose first offset is not 0 and one
// whose last is not the key count, two equal remainders in one bucket,
// and a list head that claims one id more than its list holds; in a bitmap
// partition: a bitmap holding a key more than its entries, a rank entry
// that does not count the keys below its block, and a key in the pad
// past a bitmap narrower than a word. Each fails a heap open and a
// mapped open's first search and every search after it with the same
// error, estimates made before that staying in bounds
// (rejectsEverywhere). A posting total that is not the collection size,
// a key arena whose recorded length leaves out the pad, and a header
// width that is not its partition's — a bitmap frozen a bit wider than
// it — are rejected at open either way.
func TestLoadRejectsHostileKeysAndCounts(t *testing.T) {
	data := testData(t, 100, 14)
	ix := buildSmall(t, data, Options{NumPartitions: 3, Seed: 1})
	raw := savedBytes(t, ix)
	// The last partition's directory ends the file; its remainders are
	// found by their bytes.
	last := len(ix.inv) - 1
	inv := ix.inv[last]
	keyBytes, _, _, dirBytes := inv.ArenaBreakdown()
	n := inv.NumKeys()
	if inv.Bitmap() || n > 65535 || keyBytes >= 8*int64(n) {
		t.Fatalf("partition %d of %d bits: the test needs the quotient layout, remainders shorter than a word and 2-byte offsets", last, inv.Width())
	}
	// The first partition holding a list: its posting arena follows its
	// stored keys, and leads with the list's head.
	lists := slices.IndexFunc(ix.inv, func(inv *invindex.Frozen) bool { return inv.TotalPostings() > int64(inv.NumKeys()) })
	if lists < 0 {
		t.Fatal("no partition holds a list")
	}
	listKeys, _, _, _ := ix.inv[lists].ArenaBreakdown()
	headAt := keyArenaOffset(t, ix, raw, lists) + int(listKeys)
	remLen := (int(keyBytes) - 8) / (n - 1) // n remainders and the pad to a word
	keysAt, dirAt := keyArenaOffset(t, ix, raw, last), len(raw)-int(dirBytes)
	dir := func(b []byte, i int) int { return int(binary.LittleEndian.Uint16(b[dirAt+2*i:])) }
	setDir := func(b []byte, i, v int) { binary.LittleEndian.PutUint16(b[dirAt+2*i:], uint16(v)) }
	buckets := int(dirBytes)/2 - 1
	r := 1 // the remainder's bits: the width less the bucket's
	for 1<<(inv.Width()-r) > buckets {
		r++
	}
	wide, step := -1, -1 // a bucket of two keys or more; an offset after one above 0
	for b := range buckets {
		if dir(raw, b+1)-dir(raw, b) >= 2 && wide < 0 {
			wide = b
		}
		if b > 0 && dir(raw, b-1) > 0 && step < 0 {
			step = b
		}
	}
	edit := func(change func(b []byte)) []byte {
		b := bytes.Clone(raw)
		change(b)
		return b
	}
	for _, c := range []struct {
		name, want string
		hostile    []byte
	}{
		{"a remainder bit at its width", "remainder has bits set at or past bit", edit(func(b []byte) { b[keysAt+remLen*3+r/8] |= 1 << (r % 8) })},
		{"pad byte set", "key arena pad byte", edit(func(b []byte) { b[keysAt+int(keyBytes)-1] = 1 })},
		{"a directory that descends", fmt.Sprintf("bucket directory offset %d is", step), edit(func(b []byte) { setDir(b, step, dir(b, step-1)-1) })},
		{"a first offset that is not 0", "bucket directory offset 0 is 1, not 0", edit(func(b []byte) { setDir(b, 0, 1) })},
		{"a last offset that is not the key count", fmt.Sprintf("bucket directory ends at %d, the section holds %d keys", n+1, n), edit(func(b []byte) { setDir(b, buckets, n+1) })},
		{"two equal remainders in one bucket", "not in strict hash order", edit(func(b []byte) {
			at := keysAt + remLen*dir(b, wide)
			copy(b[at+remLen:at+2*remLen], b[at:at+remLen])
		})},
		{"a list head one over", "postings: invindex: frozen entry", edit(func(b []byte) { b[headAt]++ })},
	} {
		rejectsEverywhere(t, c.name, c.hostile, c.want, data[3])
	}

	// Partition 0's posting total: the second field of its frozen header,
	// after magic, dims, count, partition count, the dimension lists and
	// five option fields.
	off := 4 * 8
	for _, part := range ix.parts.Parts {
		off += 8 + 8*len(part)
	}
	off += 5*8 + 8
	wrongTotal := bytes.Clone(raw)
	wrongTotal[off] ^= 1
	// The last partition's key arena length: the sixth field of its
	// header, off by the pad it must count.
	arenaLen := bytes.Clone(raw)
	lenAt := off - 8 + 64*last + 40
	binary.LittleEndian.PutUint64(arenaLen[lenAt:], binary.LittleEndian.Uint64(arenaLen[lenAt:])-uint64(8-remLen))
	for _, c := range []struct{ name, hostile, want string }{
		{"posting total off by one", string(wrongTotal), "postings for"},
		{"key arena length without its pad", string(arenaLen), "and the pad need"},
	} {
		for mode, src := range map[string]io.Reader{"stream": strings.NewReader(c.hostile), "borrowed": binio.NewSource([]byte(c.hostile))} {
			if _, err := LoadDeferred(src); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s, %s: at open: %v", c.name, mode, err)
			}
		}
	}

	// Bitmap partitions, of 5 to 10 bits: a bitmap holding a key more than
	// its partition's entries, a first rank entry one over, one frozen at a
	// width a bit wider than its partition's (the same key bytes, twice
	// the bits), and one whose key with bit w set lands in the pad past a
	// 5-bit bitmap's four bytes.
	ix = buildSmall(t, data, Options{NumPartitions: 8, Seed: 1})
	raw = savedBytes(t, ix)
	widths := ix.parts.Widths()
	widest, narrow, odd := 0, -1, -1
	for i, w := range widths {
		if !ix.inv[i].Bitmap() {
			t.Fatalf("partition %d of %d bits is not a bitmap; the test needs every one to be", i, w)
		}
		if w > widths[widest] {
			widest = i
		}
		if w < 6 {
			narrow = i
		} else if w%8 != 0 && w > 6 {
			odd = i
		}
	}
	if narrow < 0 || odd < 0 {
		t.Fatalf("partition widths %v: the test needs one below 6 bits and one past 6 that is not a whole number of bytes", widths)
	}
	extraKey := bytes.Clone(raw)
	at := keyArenaOffset(t, ix, raw, widest)
	for extraKey[at] == 0xff {
		at++
	}
	extraKey[at] |= ^extraKey[at] & -^extraKey[at] // its lowest clear bit
	// The last partition's rank array ends the file: entry 0 counts the
	// keys below bit 0.
	rankOver := bytes.Clone(raw)
	_, _, _, rankBytes := ix.inv[len(widths)-1].ArenaBreakdown()
	rankOver[len(raw)-int(rankBytes)]++
	refreeze := func(p, width int, rows []uint64) []byte {
		inv := ix.inv[p]
		ix.inv[p] = invindex.FreezeRows(len(data), 1, width, rows)
		defer func() { ix.inv[p] = inv }()
		return savedBytes(t, ix)
	}
	wider := refreeze(odd, widths[odd]+1, invindex.ProjectRows(ix.codes, ix.parts.Parts[odd]))
	rows := invindex.ProjectRows(ix.codes, ix.parts.Parts[narrow])
	rows[len(rows)-1] |= 1 << widths[narrow]
	padKey := refreeze(narrow, widths[narrow], rows)
	for _, c := range []struct {
		name, want string
		hostile    []byte
	}{
		{"a bitmap key more than its entries", "the section", extraKey},
		{"a rank entry one over", "rank entry 0 is 1, the bitmap holds 0 keys below bit 0", rankOver},
		{"a bitmap pad byte set", "bitmap pad byte", padKey},
	} {
		rejectsEverywhere(t, c.name, c.hostile, c.want, data[3])
	}
	for mode, src := range map[string]io.Reader{"stream": bytes.NewReader(wider), "borrowed": binio.NewSource(wider)} {
		want := fmt.Sprintf("partition %d holds keys of %d bits, the partition has %d", odd, widths[odd]+1, widths[odd])
		if _, err := LoadDeferred(src); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("a bitmap a bit wider than its partition, %s: at open: %v, want %q", mode, err, want)
		}
	}
}

// TestLoadRejectsHostileEntryWidths: a partition's refs are as wide as
// their largest needs, so one index has one file. Refs a byte wider and a
// nonzero byte in the pad after the refs are rejected by Load, from a
// stream and in place, and by the first search of a mapped open; a ref
// width out of range by all three at open. Each says what is wrong with
// the file. The hostile widths are the last partition's, whose payload
// ends the file.
func TestLoadRejectsHostileEntryWidths(t *testing.T) {
	data := testData(t, 100, 14)
	ix := buildSmall(t, data, Options{NumPartitions: 3, Seed: 1})
	raw := savedBytes(t, ix)
	last := len(ix.parts.Parts) - 1
	// The last partition's frozen header: after magic, dims, count,
	// partition count, the dimension lists, five option fields and the
	// headers before it, eight fields each; its ref width is its fifth.
	hdr := 4 * 8
	for _, part := range ix.parts.Parts {
		hdr += 8 + 8*len(part)
	}
	hdr += 5*8 + 8*8*last
	field := func(b []byte, i int) int { return int(binary.LittleEndian.Uint64(b[hdr+8*i:])) }
	n, refLen := field(raw, 0), field(raw, 4)
	if refLen > 2 {
		t.Fatalf("the last partition's refs are %d bytes; the test needs at most 2", refLen)
	}
	// Its payload ends the file: the stored keys, the posting arena, the
	// refs and their pad, alignment padding and the directory.
	keyBytes, postBytes, _, dirBytes := ix.inv[last].ArenaBreakdown()
	refsAt := keyArenaOffset(t, ix, raw, last) + int(keyBytes+postBytes)
	refs := raw[refsAt : refsAt+refLen*n]
	dir := raw[len(raw)-int(dirBytes):]
	// rewrite is raw with the last partition's refs rl bytes wide.
	rewrite := func(rl int) []byte {
		b := bytes.Clone(raw[:refsAt])
		binary.LittleEndian.PutUint64(b[hdr+32:], uint64(rl))
		for e := range n {
			var ref [4]byte
			copy(ref[:], refs[refLen*e:refLen*(e+1)])
			b = append(b, ref[:rl]...)
		}
		b = append(b, make([]byte, 4-rl)...)
		b = append(b, make([]byte, -len(b)&7)...)
		return append(b, dir...)
	}
	header := func(i, v int) []byte {
		b := bytes.Clone(raw)
		binary.LittleEndian.PutUint64(b[hdr+8*i:], uint64(v))
		return b
	}
	padSet := bytes.Clone(raw)
	padSet[refsAt+refLen*n+3-refLen] = 1
	for _, c := range []struct {
		name, want string
		hostile    []byte
		atOpen     bool
	}{
		{"refs a byte wider", fmt.Sprintf("refs are %d bytes wide", refLen+1), rewrite(refLen + 1), false},
		{"refs of four bytes", "refs are 4 bytes wide", rewrite(4), false},
		{"a nonzero ref pad byte", fmt.Sprintf("ref pad byte %d is 0x1, not 0", 3-refLen), padSet, false},
		{"a ref length of 5", "implausible ref length 5", header(4, 5), true},
		{"a ref length of 0", "implausible ref length 0", header(4, 0), true},
	} {
		if _, err := Load(bytes.NewReader(c.hostile)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: from a stream: %v, want %q", c.name, err, c.want)
		}
		if _, err := Load(binio.NewSource(c.hostile)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: in place: %v, want %q", c.name, err, c.want)
		}
		path := filepath.Join(t.TempDir(), "hostile.gph")
		if err := os.WriteFile(path, c.hostile, 0o644); err != nil {
			t.Fatal(err)
		}
		mapped, err := engine.Open(path, engine.OpenMMap)
		if err == nil {
			if c.atOpen {
				t.Errorf("%s: a mapped open accepted the file", c.name)
			}
			_, err = mapped.Search(data[3], 4)
			mapped.Close()
		} else if !c.atOpen {
			t.Errorf("%s: a mapped open read the payload: %v", c.name, err)
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: a mapped open and its first search: %v, want %q", c.name, err, c.want)
		}
	}
}

// TestExactEstimatorAddsNoPerKeyState: the index is its frozen arenas —
// there is one copy of each partition's keys, and CN estimation adds
// nothing to it.
func TestExactEstimatorAddsNoPerKeyState(t *testing.T) {
	ix := buildSmall(t, testData(t, 400, 3), Options{NumPartitions: 4, Seed: 2})
	var arenas int64
	for _, inv := range ix.inv {
		arenas += inv.SizeBytes()
	}
	if ix.SizeBytes() != arenas {
		t.Fatalf("SizeBytes %d, the frozen arenas' %d over %d partitions", ix.SizeBytes(), arenas, len(ix.inv))
	}
	// The breakdown fig6 reports is all of it but a fixed struct a partition.
	k, p, o, s := arenaBreakdown(ix)
	if over, m := arenas-(k+p+o+s), int64(len(ix.inv)); over <= 0 || over%m != 0 || over/m > 256 {
		t.Fatalf("the components sum to %d of %d bytes over %d partitions", k+p+o+s, arenas, m)
	}
}
